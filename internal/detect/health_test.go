package detect

import (
	"strings"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/health"
	"heapmd/internal/logger"
)

// healthyReport returns an in-band run over testSuite with the given
// health counters attached.
func healthyReport(c health.Counters) *logger.Report {
	roots := make([]float64, 40)
	leaves := make([]float64, 40)
	for i := range roots {
		roots[i] = 15
		leaves[i] = float64((i * 37) % 100) // keeps Leaves unstable
	}
	rep := mkReport(roots, leaves)
	rep.Health = c
	return rep
}

func TestInstrumentationAnomalyFromReport(t *testing.T) {
	rep := healthyReport(health.Counters{WildStores: 5})
	findings := CheckReport(testModel(), rep)
	var got *Finding
	for _, f := range findings {
		if f.Kind == InstrumentationAnomaly {
			if got != nil {
				t.Fatal("more than one instrumentation finding for one counter")
			}
			got = f
		}
	}
	if got == nil {
		t.Fatal("wild stores in Report.Health produced no InstrumentationAnomaly")
	}
	if got.Metric != "wild-stores" || got.Value != 5 || got.Direction != AboveMax {
		t.Errorf("finding = %+v", got)
	}
	if got.Range.Max != 0 {
		t.Errorf("default threshold for wild stores = %v, want 0", got.Range.Max)
	}
}

func TestInstrumentationAnomalyDescribe(t *testing.T) {
	rep := healthyReport(health.Counters{WildStores: 5})
	findings := CheckReport(testModel(), rep)
	sym := event.NewSymtab()
	var desc string
	for _, f := range findings {
		if f.Kind == InstrumentationAnomaly {
			desc = f.Describe(sym)
		}
	}
	for _, want := range []string{"instrumentation-anomaly", "counter=wild-stores", "count=5", "threshold=0"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe() = %q, missing %q", desc, want)
		}
	}
}

func TestInstrumentationMultipleCounters(t *testing.T) {
	rep := healthyReport(health.Counters{DoubleFrees: 2, WildFrees: 1, BadReallocs: 3})
	findings := CheckReport(testModel(), rep)
	var metrics []string
	for _, f := range findings {
		if f.Kind == InstrumentationAnomaly {
			metrics = append(metrics, f.Metric)
		}
	}
	want := []string{"double-frees", "wild-frees", "bad-reallocs"}
	if len(metrics) != len(want) {
		t.Fatalf("instrumentation findings = %v, want %v", metrics, want)
	}
	for i := range want {
		if metrics[i] != want[i] {
			t.Errorf("finding %d metric = %s, want %s (stable counter order)", i, metrics[i], want[i])
		}
	}
}

func TestCleanHealthNoFindings(t *testing.T) {
	rep := healthyReport(health.Counters{})
	for _, f := range CheckReport(testModel(), rep) {
		if f.Kind == InstrumentationAnomaly {
			t.Fatalf("clean health produced a finding: %+v", f)
		}
	}
}
