package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// raceDetector is set when the test binary is built with -race.
var raceDetector bool

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsSmoke runs every workload briefly with tracing on and
// checks that the run is correct, that it emits exactly the metrics
// BENCHMARK.json names with the same units, and that the span file is a
// well-formed tree.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{
				wl:        wl,
				seed:      7,
				measure:   600 * time.Millisecond,
				warmup:    200 * time.Millisecond,
				trace:     true,
				setupReps: 1,
				dir:       dir,
				traceOut:  filepath.Join(dir, "spans.jsonl"),
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.problems)
			}
			if !rep.correct && !raceDetector {
				t.Fatalf("run not correct: %v", rep.problems)
			}
			sameMetrics(t, "end_to_end", sp.EndToEnd, rep.e2e)
			sameMetrics(t, "per_layer", sp.PerLayer, rep.layer)
			checkSpans(t, cfg.traceOut)
		})
	}
}

// sameMetrics fails unless got and want name the same metrics with the
// same units, in both directions.
func sameMetrics(t *testing.T, kind string, want []specMetric, got []metric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("%s: %s emitted twice", kind, m.name)
		}
		units[m.name] = m.unit
	}
	for _, w := range want {
		u, ok := units[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json names %s, the run did not emit it", kind, w.Name)
		case u != w.Unit:
			t.Errorf("%s: %s emitted in %s, BENCHMARK.json says %s", kind, w.Name, u, w.Unit)
		}
		delete(units, w.Name)
	}
	for name := range units {
		t.Errorf("%s: the run emitted %s, BENCHMARK.json does not name it", kind, name)
	}
}

// checkSpans reads the span file back and checks that every span lies
// inside its parent, that self times are never negative, and that the
// trace holds requests.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.SpanID != len(lines)+1 || l.EndNs < l.StartNs {
			t.Fatalf("bad span line %+v", l)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if l.Parent == 0 {
			continue
		}
		p := lines[l.Parent-1]
		if l.StartNs < p.StartNs || l.EndNs > p.EndNs {
			t.Errorf("span %d [%d, %d] is not inside its parent %d [%d, %d]", l.SpanID, l.StartNs, l.EndNs, p.SpanID, p.StartNs, p.EndNs)
		}
	}
	st := analyze(lines)
	if st.negativeSelfs > 0 {
		t.Errorf("%d spans with negative self time", st.negativeSelfs)
	}
	if st.requests == 0 {
		t.Error("no traced request in the span file")
	}
}
