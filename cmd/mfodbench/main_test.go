package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/experiments"
)

func TestRunOneFigures(t *testing.T) {
	if err := runOne("fig1", 0, 1, 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := runOne("fig2", 0, 1, 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneFig3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 skipped in -short mode")
	}
	// A minimal configuration keeps the test fast while walking the whole
	// experiment path: 2 repetitions, 80 beats, FUNTA only.
	if err := runOne("fig3", 2, 1, 80, 0, "FUNTA", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne("bogus", 0, 1, 0, 0, "", ""); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunOneDirOutDecomp(t *testing.T) {
	if err := runOne("dirout-decomp", 0, 1, 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestFig3ChartRendersSeries(t *testing.T) {
	sums := []eval.Summary{
		{Method: "a", Contamination: 0.05, MeanAUC: 0.9},
		{Method: "a", Contamination: 0.10, MeanAUC: 0.8},
		{Method: "b", Contamination: 0.05, MeanAUC: 0.7},
		{Method: "b", Contamination: 0.10, MeanAUC: 0.6},
	}
	out := fig3Chart(sums)
	if !strings.Contains(out, "legend: o a   * b") {
		t.Fatalf("chart legend missing:\n%s", out)
	}
}

func TestWriteSummariesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	sums := []eval.Summary{{Method: "m", Contamination: 0.1, TrainSize: 10, MeanAUC: 0.9, StdAUC: 0.01, AUCs: []float64{0.9}}}
	if err := writeSummariesCSV(path, sums); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "m,0.1,10,0.9,0.01,1") {
		t.Fatalf("csv content wrong:\n%s", data)
	}
}

func TestRunUnknownMethodFilter(t *testing.T) {
	if err := runOne("fig3", 1, 1, 80, 0, "NotAMethod", ""); err == nil {
		t.Fatal("unknown method filter must fail")
	}
}

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

func TestRunBenchWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := runBench(16, 1, 0, path, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.HotpathReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Workload != "fig3" || rep.FitSequential.NsPerOp <= 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

func TestRunBenchFloorFailureStillWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := runBench(12, 1, 0, path, 1e9); err == nil {
		t.Fatal("unattainable floor must fail")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("report missing after floor failure: %v", err)
	}
}
