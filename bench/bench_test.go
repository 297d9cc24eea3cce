package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes run every workload in a fraction of a second per phase.
var tinySizes = sizes{
	train: 6, held: 1,
	churnTraces: 3, churnObjects: 64, churnEvents: 2000,
	treeTraces: 3, treeNodes: 256, treePoints: 3,
	setups: 1, minReps: 1, minOps: 1,
}

// TestWorkloadsTiny runs every workload in both modes at tiny scale and
// checks the result file's schema, the result line and that no op
// failed.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range benchWorkloads {
		for _, perLayer := range []bool{false, true} {
			mode := "end-to-end"
			defs := endToEndMetrics
			if perLayer {
				mode, defs = "per-layer", perLayerMetrics
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "result.json")
				res, err := runOne(w, 7, 0, perLayer, tinySizes, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.ErrorRate != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, error_rate %v: %v", res.Attempted, res.ErrorRate, res.Failures)
				}

				var doc map[string]any
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Fatal(err)
				}
				if doc["schema_version"] != float64(schemaVersion) {
					t.Errorf("schema_version = %v", doc["schema_version"])
				}
				for _, k := range []string{"machine", "seed", "defaults", "serial", "error_rate", "missed_bugs", "false_alarms", "metrics"} {
					if _, ok := doc[k]; !ok {
						t.Errorf("result file lacks %q", k)
					}
				}
				for _, k := range []string{"gomaxprocs", "nproc", "cpu_model", "go_version", "commit"} {
					if _, ok := doc["machine"].(map[string]any)[k]; !ok {
						t.Errorf("machine stamp lacks %q", k)
					}
				}
				for _, k := range []string{"decode_workers", "ingest_workers", "connectivity", "scc"} {
					if _, ok := doc["defaults"].(map[string]any)[k]; !ok {
						t.Errorf("defaults lack %q", k)
					}
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or not in %s: %+v", d.name, d.unit, m)
					}
				}
				if perLayer {
					if st, err := os.Stat(res.SpansFile); err != nil || st.Size() == 0 {
						t.Errorf("spans file %q: %v", res.SpansFile, err)
					}
				}

				var stdout bytes.Buffer
				printResult(&stdout, res)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(defs) {
					t.Errorf("result line %s", lines[len(lines)-1])
				}
			})
		}
	}
}

// TestInputsDeterministic checks that the same seed gives the same
// inputs and a different seed different ones: byte-identical traces
// from the synthetic generators, identical reference reports from the
// program corpus. (Corpus traces are not compared byte for byte: the
// game_action program frees its oct-tree in map order, which changes
// the trace but not the report.)
func TestInputsDeterministic(t *testing.T) {
	for _, name := range []string{"replay-corpus", "store-churn", "structure-extended"} {
		w := lookupWorkload(name)
		a, err := w.setup(1, tinySizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.setup(1, tinySizes, 2)
		c, _ := w.setup(2, tinySizes, 2)
		differs := false
		for i := range a.items {
			if a.items[i].ref != b.items[i].ref || (a.items[i].w == nil && !bytes.Equal(a.items[i].data, b.items[i].data)) {
				t.Errorf("%s item %d: same seed, different input", name, i)
			}
			differs = differs || a.items[i].ref.digest != c.items[i].ref.digest
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give identical inputs", name)
		}
	}
}

// TestTamperedReferenceFails checks that the oracle counts an op whose
// report no longer matches its reference digest as failed.
func TestTamperedReferenceFails(t *testing.T) {
	in, err := lookupWorkload("store-churn").setup(1, tinySizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.items[1].ref.digest ^= 1
	defaults, _, err := configs()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{in: in}
	r.rep(defaults, nil, true)
	if r.attempted != len(in.items) || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want %d, 1", r.attempted, r.failed, len(in.items))
	}
}

// TestMetricTables keeps the result line's metrics and workloads in
// step with BENCHMARK.json.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(benchWorkloads) {
		t.Errorf("%d workloads declared, %d implemented", len(def.Workloads), len(benchWorkloads))
	}
	for i := range def.Workloads {
		if i < len(benchWorkloads) && (def.Workloads[i].Name != benchWorkloads[i].name || def.Workloads[i].Why != benchWorkloads[i].why) {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, def.Workloads[i], benchWorkloads[i].name, benchWorkloads[i].why)
		}
	}
	check := func(kind string, declared []bound, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d implemented", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s %s, implemented %s %s", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEndMetrics)
	check("per_layer", def.PerLayer, perLayerMetrics)
}

// TestStatistics pins the order statistics to their definitions; the
// quartiles match Python's statistics.quantiles(xs, n=4).
func TestStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 95); p != 10 {
		t.Errorf("p95 = %v", p)
	}
	if p := percentile(sorted, 50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
}

// TestCompare checks the verdicts of -compare: a change beyond the
// bound regresses, a noisy set is unresolved, a small change is ok.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bounds, []byte(`{"end_to_end": [{"name": "cpu_slowdown_x", "unit": "x", "better": "lower", "bound": 0.1}]}`), 0o644)
	write := func(name string, samples ...float64) string {
		p := filepath.Join(dir, name)
		writeJSON(p, result{Workload: "store-churn", Seed: 1, Metrics: map[string]metric{
			"cpu_slowdown_x": {Value: median(samples), Unit: "x", Samples: samples},
		}}, false)
		return p
	}
	base := write("a.json", 100, 101, 99, 100)
	for _, c := range []struct {
		samples []float64
		verdict string
	}{
		{[]float64{103, 102, 104, 103}, "ok"},
		{[]float64{120, 121, 119, 120}, "REGRESSED"},
		{[]float64{60, 100, 140, 100}, "unresolved"},
	} {
		var out bytes.Buffer
		compareResults(base, write("b.json", c.samples...), bounds, &out)
		row := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "cpu_slowdown_x ") {
				row = strings.TrimSpace(l)
			}
		}
		if !strings.HasSuffix(row, c.verdict) {
			t.Errorf("samples %v: want %s, got\n%s", c.samples, c.verdict, out.String())
		}
	}
}
