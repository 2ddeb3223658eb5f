package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"
)

// TestMain shortens each testing.Benchmark pass of the hot-path harness
// to 50 ms unless -test.benchtime is given: the tests here check the
// report and its gates, not the timings, and RunHotpath times seven
// stages in five passes each.
func TestMain(m *testing.M) {
	flag.Parse()
	benchtime := false
	flag.Visit(func(f *flag.Flag) { benchtime = benchtime || f.Name == "test.benchtime" })
	if !benchtime {
		if err := flag.Set("test.benchtime", "50ms"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// TestRunHotpathSmall runs the benchmark harness on a tiny workload: the
// point is the equivalence gate and the report shape, not the timings.
func TestRunHotpathSmall(t *testing.T) {
	rep, err := RunHotpath(HotpathOptions{N: 24, Seed: 7})
	if err != nil {
		t.Fatalf("RunHotpath: %v", err)
	}
	if rep.Workload != "fig3" {
		t.Errorf("workload = %q, want fig3", rep.Workload)
	}
	if rep.N != 24 || rep.M == 0 {
		t.Errorf("workload shape n=%d m=%d", rep.N, rep.M)
	}
	if rep.MaxAbsScoreDiff > 1e-12 {
		t.Errorf("MaxAbsScoreDiff = %g, want <= 1e-12", rep.MaxAbsScoreDiff)
	}
	if rep.FitSequential.NsPerOp <= 0 || rep.FitOptimized.NsPerOp <= 0 ||
		rep.ScoreSequential.NsPerOp <= 0 || rep.ScoreOptimized.NsPerOp <= 0 ||
		rep.StreamRefit.NsPerOp <= 0 || rep.FreshGridScore.NsPerOp <= 0 || rep.DecodeJSON.NsPerOp <= 0 ||
		rep.SaveModel.NsPerOp <= 0 || rep.LoadModel.NsPerOp <= 0 {
		t.Errorf("missing timings: %+v", rep)
	}
	// Every Fig. 3 curve shares one grid, and the default ladder has 4
	// basis sizes, each looked up once per fit: the cold fit misses 4
	// times, the admitting fit 4 more, and the warm fit hits 4.
	if rep.CacheHits != 4 || rep.CacheMisses != 8 {
		t.Errorf("cache hits/misses %d/%d, want 4/8", rep.CacheHits, rep.CacheMisses)
	}
	// The report must round-trip as JSON for the CI artifact.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var back HotpathReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if back != *rep {
		t.Errorf("report did not round-trip: %+v vs %+v", back, *rep)
	}
}

// TestRunHotpathMinSpeedupFail proves the CI gate actually gates: an
// absurd floor must surface as an error while still returning the report.
func TestRunHotpathMinSpeedupFail(t *testing.T) {
	rep, err := RunHotpath(HotpathOptions{N: 12, Seed: 3, MinSpeedup: 1e9})
	if err == nil {
		t.Fatal("want error for unattainable MinSpeedup")
	}
	if rep == nil {
		t.Fatal("report should accompany the speedup error")
	}
}

// TestTimeStagesInterleavesPasses: pass k of every stage runs, in stage
// order, before pass k+1 of any stage, and each stage's median lands in
// its own report field.
func TestTimeStagesInterleavesPasses(t *testing.T) {
	var order []int
	out := make([]HotpathStage, 3)
	stages := make([]timedStage, len(out))
	for i := range stages {
		stages[i] = timedStage{out: &out[i], run: func(b *testing.B) {
			if b.N == 1 { // the first call of each testing.Benchmark pass
				order = append(order, i)
			}
			for j := 0; j < b.N; j++ {
				benchSink = make([]byte, 8*(i+1))
			}
		}}
	}
	timeStages(stages)
	var want []int
	for pass := 0; pass < hotpathPasses; pass++ {
		want = append(want, 0, 1, 2)
	}
	if !slices.Equal(order, want) {
		t.Fatalf("pass order %v, want %v", order, want)
	}
	for i, st := range out {
		if st.NsPerOp <= 0 || st.AllocsPerOp != 1 {
			t.Errorf("stage %d: %+v, want a timing and 1 alloc/op", i, st)
		}
	}
}

var benchSink []byte
