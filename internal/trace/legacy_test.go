package trace

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heapmd/internal/event"
)

var updateLegacy = flag.Bool("update", false, "rewrite the legacy trace fixture goldens under testdata/")

// legacyFixtures are traces written by an older writer and checked in
// as bytes (testdata/legacy-<name>.trace), so a change to the writer
// cannot silently change what the reader is tested against — and the
// v1 and v2 readers keep their inputs now that only v3 is written.
//
// The mcf fixtures hold one short corpus run: mcf input 0 with its
// scale quartered (Scale 35, 4242 events), the run's symbol table
// attached, recorded by the writer of commit 342a38d — 512-record
// event frames, a symtab checkpoint every 8 event frames:
//
//	mcf-v2             format v2, fixed-width records
//	mcf-v3             format v3, raw columnar frames
//	mcf-v3-flate       format v3, every frame flate-compressed
//	mcf-v3-flate-trunc mcf-v3-flate cut in the middle of its last event frame
//	mcf-v3-flate-flip  mcf-v3-flate with one payload byte of event frame 4 flipped
//
// The small fixtures hold smallFixtureEvents with the symtab {alpha,
// beta}, recorded by the v1 and v2 writers of commit ff3a4c7 (the last
// to have them), small enough for tests that cut or flip every byte:
//
//	small-v1 format v1, unframed records and trailer
//	small-v2 format v2, symtab attached, flushed every 5 events: six
//	         event frames, each followed by a symtab checkpoint
var legacyFixtures = []string{
	"small-v1", "small-v2",
	"mcf-v2", "mcf-v3", "mcf-v3-flate", "mcf-v3-flate-trunc", "mcf-v3-flate-flip",
}

// smallFixtureEvents returns the event stream the small fixtures hold.
func smallFixtureEvents() []event.Event { return v3TestEvents(30) }

// smallFixtureSymtab returns the symbol table the small fixtures hold.
func smallFixtureSymtab() *event.Symtab {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	sym.Intern("beta")
	return sym
}

// legacyTrace returns the bytes of the fixture testdata/legacy-<name>.trace.
func legacyTrace(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-"+name+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyGolden is what replaying a fixture must yield. Strict replay
// and salvage deliver the same events, symbols and Stats; strict fails
// with Strict ("" for a clean trace) where salvage reports Salvage.
type legacyGolden struct {
	Strict  string      `json:"strict"`
	Events  uint64      `json:"events"`
	Digest  string      `json:"digest"`
	Symbols []string    `json:"symbols"`
	Salvage SalvageInfo `json:"salvage"`
	Stats   legacyStats `json:"stats"`
}

// legacyStats is the trace-shape part of Stats.
type legacyStats struct {
	Version          uint32 `json:"version"`
	TotalBytes       uint64 `json:"total_bytes"`
	EventFrames      uint64 `json:"event_frames"`
	CompressedFrames uint64 `json:"compressed_frames"`
	StoredEventBytes uint64 `json:"stored_event_bytes"`
	RawEventBytes    uint64 `json:"raw_event_bytes"`
}

// eventDigest is FNV-1a (64-bit) over the events' fixed-width records.
func eventDigest(evs []event.Event) string {
	h := fnv.New64a()
	var rec []byte
	for _, e := range evs {
		rec = append(rec[:0], byte(e.Type))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(e.Fn))
		rec = binary.LittleEndian.AppendUint64(rec, e.Addr)
		rec = binary.LittleEndian.AppendUint64(rec, e.Value)
		rec = binary.LittleEndian.AppendUint64(rec, e.Old)
		rec = binary.LittleEndian.AppendUint64(rec, e.Size)
		h.Write(rec)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenOf(strict, salvage replayOutcome) legacyGolden {
	st := salvage.stats
	return legacyGolden{
		Strict:  strict.errStr,
		Events:  uint64(len(salvage.events)),
		Digest:  eventDigest(salvage.events),
		Symbols: salvage.syms,
		Salvage: salvage.info,
		Stats: legacyStats{
			Version:          st.Version,
			TotalBytes:       st.TotalBytes,
			EventFrames:      st.EventFrames,
			CompressedFrames: st.CompressedFrames,
			StoredEventBytes: st.StoredEventBytes,
			RawEventBytes:    st.RawEventBytes,
		},
	}
}

// TestLegacyTraceFixtures replays every checked-in legacy trace in
// strict and salvage mode on the synchronous reader and on the
// pipeline with one and two workers, and checks each against its
// golden. Run with -update to rewrite the goldens from the current
// reader. The mcf subtests keep the names they had before the small
// fixtures joined (v2, v3, ...).
func TestLegacyTraceFixtures(t *testing.T) {
	for _, name := range legacyFixtures {
		t.Run(strings.TrimPrefix(name, "mcf-"), func(t *testing.T) {
			base := filepath.Join("testdata", "legacy-"+name)
			data := legacyTrace(t, name)
			if *updateLegacy {
				g := goldenOf(runReplay(t, data, false, 0), runReplay(t, data, true, 0))
				js, err := json.MarshalIndent(g, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			js, err := os.ReadFile(base + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var want legacyGolden
			if err := json.Unmarshal(js, &want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2} {
				strict, salvage := runReplay(t, data, false, workers), runReplay(t, data, true, workers)
				if salvage.errStr != "" {
					t.Fatalf("workers %d: salvage failed: %s", workers, salvage.errStr)
				}
				if strict.errStr != "" && !strings.HasPrefix(strict.errStr, ErrCorrupt.Error()) {
					t.Errorf("workers %d: strict error %q does not wrap ErrCorrupt", workers, strict.errStr)
				}
				// Apart from the error and the SalvageInfo, strict replay
				// must deliver exactly what salvage does.
				same := salvage
				same.errStr, same.info = strict.errStr, SalvageInfo{}
				if d := diffOutcome(same, strict); d != "" {
					t.Errorf("workers %d: strict and salvage replays differ: %s", workers, d)
				}
				got := goldenOf(strict, salvage)
				gotJS, _ := json.Marshal(got)
				wantJS, _ := json.Marshal(want)
				if string(gotJS) != string(wantJS) {
					t.Errorf("workers %d: replay differs from golden\n got  %s\n want %s", workers, gotJS, wantJS)
				}
			}
		})
	}
}
