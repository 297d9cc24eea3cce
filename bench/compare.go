package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// loadRuns reads the end-to-end results of a result set — a result
// file, a suite file, or a directory of either — grouped by workload.
func loadRuns(path string) (map[string][]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	runs := map[string][]result{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var s suiteResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if len(s.Runs) == 0 {
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			s.Runs = []result{r}
		}
		for _, r := range s.Runs {
			if r.Workload != "" && !r.Trace {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	return runs, nil
}

// samplesOf returns a result set's values of one metric: each run's
// value when the set has several runs, else the one run's per-rep
// samples.
func samplesOf(runs []result, name string) []float64 {
	if len(runs) == 1 && len(runs[0].Metrics[name].Samples) > 1 {
		return runs[0].Metrics[name].Samples
	}
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[name].Value)
	}
	return v
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return div(q3-q1, median(v))
}

// compareResults checks result set b against result set a, one row per
// workload and end-to-end metric. A metric regresses when b's median is
// worse than a's by more than its bound; it is unresolved when either
// set's own spread exceeds the bound. The absolute throughput and
// latency rows have no bound. The correctness counts must repeat
// exactly. It returns 1 when anything regressed or differs.
func compareResults(a, b, boundsPath string, w io.Writer) int {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	as, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bs, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, wl := range benchWorkloads {
		ra, rb := as[wl.name], bs[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s (%d vs %d runs)\n", wl.name, len(ra), len(rb))
		row := func(name, unit string) (change, spA, spB float64) {
			sa, sb := samplesOf(ra, name), samplesOf(rb, name)
			ma, mb := median(sa), median(sb)
			change, spA, spB = div(mb-ma, ma), spread(sa), spread(sb)
			fmt.Fprintf(w, "   %-22s %14.6g -> %-14.6g %-6s %+7.2f%%  spread %5.2f%% / %5.2f%%  ",
				name, ma, mb, unit, 100*change, 100*spA, 100*spB)
			return change, spA, spB
		}
		for _, bd := range bounds {
			change, spA, spB := row(bd.Name, bd.Unit)
			worse := change
			if bd.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case spA > bd.Bound || spB > bd.Bound:
				verdict = "unresolved"
			case worse > bd.Bound:
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Fprintf(w, "bound %3.0f%%  %s\n", 100*bd.Bound, verdict)
		}
		for _, d := range endToEndDetailMetrics {
			row(d.name, d.unit)
			fmt.Fprintln(w, "no bound")
		}
		// Runs of one seed must agree on the correctness counts, within
		// each set and across the two.
		bySeed := map[int64]string{}
		verdict := "ok"
		for _, r := range append(append([]result(nil), ra...), rb...) {
			k := fmt.Sprintf("missed_bugs %d, false_alarms %d, error_rate %g", r.MissedBugs, r.FalseAlarms, r.ErrorRate)
			if prev, ok := bySeed[r.Seed]; ok && prev != k {
				verdict = "DIFFERS"
				status = 1
			}
			bySeed[r.Seed] = k
			if r.ErrorRate != 0 {
				verdict = "FAILED"
				status = 1
			}
		}
		fmt.Fprintf(w, "   correctness (seed %d): %s  %s\n", ra[0].Seed, bySeed[ra[0].Seed], verdict)
	}
	return status
}
