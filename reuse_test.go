package heapmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/metrics"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// TestReplayReuseConcurrent replays different traces from several
// goroutines at once, under both suites, through ReplayTraceWith. The
// replays share the pool of released loggers, so each goroutine's
// logger may have run another goroutine's trace before; every report
// must still equal the one the same replay gave serially.
func TestReplayReuseConcurrent(t *testing.T) {
	type job struct {
		name  string
		data  []byte
		suite metrics.Suite
		want  []byte
	}
	var jobs []*job
	for _, prog := range []string{"parser", "mcf", "multimedia"} {
		data := recordWorkloadTrace(t, prog)
		for _, su := range []struct {
			name  string
			suite metrics.Suite
		}{{"default", metrics.DefaultSuite()}, {"extended", metrics.ExtendedSuite()}} {
			jobs = append(jobs, &job{name: prog + "/" + su.name, data: data, suite: su.suite})
		}
	}
	replay := func(j *job) ([]byte, error) {
		rep, _, _, err := ReplayTraceWith(bytes.NewReader(j.data), j.name, "in0", ReplayOptions{Suite: j.suite})
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	for _, j := range jobs {
		var err error
		if j.want, err = replay(j); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	const goroutines, rounds = 4, 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range jobs {
					j := jobs[(k+g*len(jobs)/goroutines+r)%len(jobs)]
					got, err := replay(j)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", j.name, err)
						return
					}
					if !bytes.Equal(got, j.want) {
						errs <- fmt.Errorf("goroutine %d round %d: %s: report differs from the serial replay's", g, r, j.name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// recordWorkloadTrace records the first input of the named workload as
// an uncompressed v3 trace.
func recordWorkloadTrace(t *testing.T, name string) []byte {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := workloads.RunLogged(w, w.Inputs(1)[0], workloads.RunConfig{ExtraSinks: []event.Sink{tw}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(p.Sym()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
