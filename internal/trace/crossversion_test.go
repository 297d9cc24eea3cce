package trace

import (
	"bytes"
	"strings"
	"testing"

	"heapmd/internal/event"
)

// traceVariant is one run's events in a given format version.
type traceVariant struct {
	name    string
	version uint32
	data    []byte
}

// crossVersionVariants returns smallFixtureEvents in every format: the
// checked-in v1 and v2 fixtures, and v3 raw and flate written now with
// the v2 fixture's framing (a frame every 5 events, symtab attached).
func crossVersionVariants(t *testing.T) []traceVariant {
	evs, sym := smallFixtureEvents(), smallFixtureSymtab()
	return []traceVariant{
		{"v1", VersionV1, legacyTrace(t, "small-v1")},
		{"v2", VersionV2, legacyTrace(t, "small-v2")},
		{"v3", VersionV3, writeV3(t, evs, sym, 5, false)},
		{"v3-flate", VersionV3, writeV3(t, evs, sym, 5, true)},
	}
}

// TestCrossVersionEquivalence is the format-compatibility oracle: the
// same run written as v1, v2, v3 and compressed v3 must replay to
// byte-identical event sequences and identical symbol tables, with
// correct per-format version reporting in Stats.
func TestCrossVersionEquivalence(t *testing.T) {
	evs := smallFixtureEvents()

	type result struct {
		name   string
		events []event.Event
		syms   []string
		stats  Stats
	}
	var results []result
	for _, v := range crossVersionVariants(t) {
		data := v.data
		var got []event.Event
		var st Stats
		rsym, n, err := ReplayWith(bytes.NewReader(data), collectSink(&got), ReadOptions{Stats: &st})
		if err != nil {
			t.Fatalf("%s: replay failed: %v", v.name, err)
		}
		if n != uint64(len(evs)) {
			t.Fatalf("%s: replayed %d events, want %d", v.name, n, len(evs))
		}
		if st.Version != v.version || st.Events != n || st.TotalBytes != uint64(len(data)) {
			t.Errorf("%s: stats = %+v", v.name, st)
		}
		results = append(results, result{v.name, got, symNames(rsym), st})
	}
	base := results[0]
	if len(base.syms) != 2 {
		t.Fatalf("%s: %d symbols, want 2", base.name, len(base.syms))
	}
	for _, r := range results[1:] {
		if len(r.events) != len(base.events) || len(r.syms) != len(base.syms) {
			t.Fatalf("%s: %d events, %d symbols vs %s's %d, %d",
				r.name, len(r.events), len(r.syms), base.name, len(base.events), len(base.syms))
		}
		for i := range r.events {
			if r.events[i] != base.events[i] {
				t.Fatalf("%s: event %d = %+v, %s has %+v", r.name, i, r.events[i], base.name, base.events[i])
			}
		}
		for i, s := range r.syms {
			if s != base.syms[i] {
				t.Fatalf("%s: symbol %d = %q, %s has %q", r.name, i, s, base.name, base.syms[i])
			}
		}
	}
	// The size ordering the format exists for: v3 < v2, and on this
	// clustered workload compressed v3 no larger than raw v3.
	byName := map[string]Stats{}
	for _, r := range results {
		byName[r.name] = r.stats
	}
	if byName["v3"].TotalBytes >= byName["v2"].TotalBytes {
		t.Errorf("v3 (%d bytes) not smaller than v2 (%d bytes)",
			byName["v3"].TotalBytes, byName["v2"].TotalBytes)
	}
	if byName["v3-flate"].TotalBytes > byName["v3"].TotalBytes {
		t.Errorf("v3-flate (%d bytes) larger than v3 (%d bytes)",
			byName["v3-flate"].TotalBytes, byName["v3"].TotalBytes)
	}
}

// TestCrossVersionSalvage runs the truncation drill over every format
// that supports salvage: cutting a framed trace mid-frame loses at
// most one frame of events and never corrupts the prefix, regardless
// of version; v1 recovers whole records.
func TestCrossVersionSalvage(t *testing.T) {
	evs := smallFixtureEvents()
	for _, v := range crossVersionVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			data := v.data
			for _, frac := range []int{4, 2, 3} {
				cut := len(data) * (frac - 1) / frac
				var got []event.Event
				_, info, err := Salvage(bytes.NewReader(data[:cut]), collectSink(&got))
				if err != nil {
					t.Fatalf("cut=%d: %v", cut, err)
				}
				if !info.Truncated {
					t.Errorf("cut=%d: truncation not flagged", cut)
				}
				if uint64(len(got)) != info.EventsRecovered {
					t.Errorf("cut=%d: delivered %d events, info says %d", cut, len(got), info.EventsRecovered)
				}
				for i := range got {
					if got[i] != evs[i] {
						t.Fatalf("cut=%d: salvaged event %d corrupted", cut, i)
					}
				}
			}
		})
	}
}

// TestV2ErrorStringsPinned pins the v2 corruption error strings as
// public contract: reader changes must not reword what tools already
// match on. The damage is cut or flipped into the v2 fixture.
func TestV2ErrorStringsPinned(t *testing.T) {
	clean := legacyTrace(t, "small-v2")

	strict := func(data []byte) error {
		_, _, err := Replay(bytes.NewReader(data), event.SinkFunc(func(event.Event) {}))
		return err
	}

	// Truncated in the middle of an event frame's payload.
	if err := strict(clean[:len(clean)/2]); err == nil || !strings.Contains(err.Error(), "truncated frame payload") {
		t.Errorf("truncation error = %v", err)
	}
	// CRC mismatch on a payload byte of the first event frame.
	mut := bytes.Clone(clean)
	mut[20] ^= 0xff
	if err := strict(mut); err == nil || !strings.Contains(err.Error(), "frame checksum mismatch") {
		t.Errorf("crc error = %v", err)
	}
	// Unknown frame kind (the kind byte is outside the CRC).
	mut = bytes.Clone(clean)
	mut[8] = 0x77
	if err := strict(mut); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Errorf("kind error = %v", err)
	}
	// Unsupported header version.
	mut = bytes.Clone(clean)
	mut[4] = 99
	if err := strict(mut); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("version error = %v", err)
	}
}
