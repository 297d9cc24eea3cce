package health

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestZeroAndTotal(t *testing.T) {
	var c Counters
	if !c.Zero() || c.Total() != 0 {
		t.Fatalf("zero Counters: Zero=%v Total=%d", c.Zero(), c.Total())
	}
	c.WildStores = 3
	c.DoubleFrees = 1
	if c.Zero() {
		t.Error("nonzero Counters reported Zero")
	}
	if got := c.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
}

func TestAdd(t *testing.T) {
	a := Counters{DoubleFrees: 1, WildStores: 2, SalvagedBytes: 100}
	b := Counters{DoubleFrees: 3, UnknownEvents: 5, SalvagedGaps: 1, SalvagedBytes: 50}
	a.Add(b)
	want := Counters{DoubleFrees: 4, WildStores: 2, UnknownEvents: 5, SalvagedGaps: 1, SalvagedBytes: 150}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

func TestStringCleanAndNonzero(t *testing.T) {
	var c Counters
	if got := c.String(); got != "clean" {
		t.Errorf("zero String = %q, want clean", got)
	}
	c = Counters{WildFrees: 2, SalvagedGaps: 1, SalvagedBytes: 37}
	s := c.String()
	for _, want := range []string{"wild-frees=2", "salvaged-gaps=1", "salvaged-bytes=37"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "double-frees") {
		t.Errorf("String %q renders zero counters", s)
	}
}

func TestNonzeroFilters(t *testing.T) {
	c := Counters{WildStores: 7}
	items := c.Nonzero()
	if len(items) != 1 || items[0].Name != "wild-stores" || items[0].Count != 7 {
		t.Errorf("Nonzero = %+v", items)
	}
	if n := len(c.Items()); n != 7 {
		t.Errorf("Items len = %d, want 7", n)
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds()
	// A single double free is anomalous under defaults.
	ex := th.Exceeded(Counters{DoubleFrees: 1})
	if len(ex) != 1 || ex[0].Counter != "double-frees" || ex[0].Count != 1 || ex[0].Threshold != 0 {
		t.Errorf("Exceeded = %+v", ex)
	}
	// Salvage gaps and observer panics are tolerated by default...
	if ex := th.Exceeded(Counters{SalvagedGaps: 3, ObserverPanics: 2}); len(ex) != 0 {
		t.Errorf("default thresholds flagged infra faults: %+v", ex)
	}
	// ...but not under Strict.
	if ex := Strict().Exceeded(Counters{SalvagedGaps: 3, ObserverPanics: 2}); len(ex) != 2 {
		t.Errorf("Strict().Exceeded = %+v, want 2 excesses", ex)
	}
}

func TestExceededTolerantThresholds(t *testing.T) {
	c := Counters{WildStores: 5, DoubleFrees: 1}
	tolerant := DefaultThresholds()
	tolerant.MaxWildStores = 10
	tolerant.MaxDoubleFrees = 1
	if ex := tolerant.Exceeded(c); len(ex) != 0 {
		t.Fatalf("counters within custom thresholds still reported: %+v", ex)
	}
	// A bound is the largest acceptable count: one more exceeds it.
	c.DoubleFrees = 2
	if ex := tolerant.Exceeded(c); len(ex) != 1 || ex[0].Counter != "double-frees" || ex[0].Threshold != 1 {
		t.Errorf("Exceeded = %+v, want double-frees over 1", ex)
	}
}

func TestExceededOrderAndMulti(t *testing.T) {
	c := Counters{DoubleFrees: 2, WildStores: 9, UnknownEvents: 1}
	ex := DefaultThresholds().Exceeded(c)
	if len(ex) != 3 {
		t.Fatalf("Exceeded len = %d, want 3", len(ex))
	}
	wantOrder := []string{"double-frees", "wild-stores", "unknown-events"}
	for i, w := range wantOrder {
		if ex[i].Counter != w {
			t.Errorf("excess[%d] = %s, want %s", i, ex[i].Counter, w)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Counters{DoubleFrees: 1, WildStores: 4, SalvagedGaps: 1, SalvagedBytes: 99}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip: got %+v, want %+v", back, c)
	}
	// Zero counters marshal compactly thanks to omitempty.
	empty, err := json.Marshal(&Counters{})
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "{}" {
		t.Errorf("zero Counters JSON = %s, want {}", empty)
	}
}
