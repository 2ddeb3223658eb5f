// Command mfodbench regenerates every table and figure of the paper's
// evaluation (and this repository's ablations) as text tables.
//
// Usage:
//
//	mfodbench -exp fig3 [-reps 50] [-seed 1] [-n 200]
//	mfodbench -exp fig1|fig2|fig3|ablation-map|ablation-basis|ablation-detector|depth-issues|ensemble|all
//	mfodbench -bench [-bench-out BENCH_hotpath.json] [-bench-min-speedup 2]
//
// -bench benchmarks the smoothing/scoring hot path (sequential seed path
// vs worker pool + basis cache) and writes a machine-readable report; see
// README.md §Performance for how to read it.
//
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured outcomes.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/plot"
)

func main() {
	var (
		exp      = flag.String("exp", "fig3", "experiment id: fig1, fig2, fig3, ablation-map, ablation-basis, ablation-detector, depth-issues, dirout-decomp, ensemble, all")
		reps     = flag.Int("reps", 0, "repetitions per condition (0 = experiment default: 50 for fig3, 20 for ablations)")
		seed     = flag.Int64("seed", 1, "master random seed")
		n        = flag.Int("n", 0, "dataset size for fig3 (0 = 200)")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		methods  = flag.String("methods", "", "comma-separated method subset for fig3 (default all four)")
		csvOut   = flag.String("csv", "", "also write fig3 summaries to this CSV file")

		bench      = flag.Bool("bench", false, "benchmark the smoothing/scoring hot path instead of running an experiment")
		benchOut   = flag.String("bench-out", "BENCH_hotpath.json", "file the -bench report is written to")
		benchFloor = flag.Float64("bench-min-speedup", 0, "fail unless fit and score speedups reach this factor (0 = report only)")
	)
	flag.Parse()
	if *bench {
		if err := runBench(*n, *seed, *parallel, *benchOut, *benchFloor); err != nil {
			fmt.Fprintln(os.Stderr, "mfodbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *reps, *seed, *n, *parallel, *methods, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "mfodbench:", err)
		os.Exit(1)
	}
}

// runBench executes the hot-path benchmark and writes the JSON report.
// The report is written even when the speedup floor fails, so CI archives
// the numbers that caused the failure.
func runBench(n int, seed int64, parallel int, out string, minSpeedup float64) error {
	rep, err := experiments.RunHotpath(experiments.HotpathOptions{
		N: n, Seed: seed, Parallel: parallel, MinSpeedup: minSpeedup,
	})
	if rep != nil {
		blob, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			return merr
		}
		blob = append(blob, '\n')
		if werr := os.WriteFile(out, blob, 0o644); werr != nil {
			return werr
		}
		fmt.Printf("hot path (%s, n=%d, m=%d, %d workers / %d cpus, median of %d passes):\n", rep.Workload, rep.N, rep.M, rep.Workers, rep.CPUs, rep.Passes)
		fmt.Printf("  FitDataset      %12d ns/op seq  %12d ns/op opt  %.2fx\n",
			rep.FitSequential.NsPerOp, rep.FitOptimized.NsPerOp, rep.FitSpeedup)
		fmt.Printf("  Pipeline.Score  %12d ns/op seq  %12d ns/op opt  %.2fx\n",
			rep.ScoreSequential.NsPerOp, rep.ScoreOptimized.NsPerOp, rep.ScoreSpeedup)
		fmt.Printf("  JSON decode     %12d ns/op  %d allocs/op (one curve's body)\n",
			rep.DecodeJSON.NsPerOp, rep.DecodeJSON.AllocsPerOp)
		fmt.Printf("  model save      %12d ns/op  %d allocs/op\n", rep.SaveModel.NsPerOp, rep.SaveModel.AllocsPerOp)
		fmt.Printf("  model load      %12d ns/op  %d allocs/op\n", rep.LoadModel.NsPerOp, rep.LoadModel.AllocsPerOp)
		fmt.Printf("  cache hits/misses %d/%d, max |Δscore| = %g\n", rep.CacheHits, rep.CacheMisses, rep.MaxAbsScoreDiff)
		fmt.Printf("(report written to %s)\n", out)
	}
	return err
}

func run(exp string, reps int, seed int64, n, parallel int, methods, csvOut string) error {
	ids := []string{exp}
	if exp == "all" {
		ids = []string{"fig1", "fig2", "fig3", "ablation-map", "ablation-basis", "ablation-detector", "depth-issues", "dirout-decomp", "ensemble"}
	}
	for _, id := range ids {
		start := time.Now()
		if err := runOne(id, reps, seed, n, parallel, methods, csvOut); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeSummariesCSV exports experiment summaries for external plotting.
func writeSummariesCSV(path string, sums []eval.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"method", "contamination", "trainSize", "meanAUC", "stdAUC", "reps"}); err != nil {
		return err
	}
	for _, s := range sums {
		rec := []string{
			s.Method,
			strconv.FormatFloat(s.Contamination, 'g', -1, 64),
			strconv.Itoa(s.TrainSize),
			strconv.FormatFloat(s.MeanAUC, 'g', -1, 64),
			strconv.FormatFloat(s.StdAUC, 'g', -1, 64),
			strconv.Itoa(len(s.AUCs)),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// fig3Chart renders the Fig. 3 series as an ASCII line chart.
func fig3Chart(sums []eval.Summary) string {
	byMethod := map[string]*plot.Series{}
	var order []string
	for _, s := range sums {
		ser, ok := byMethod[s.Method]
		if !ok {
			ser = &plot.Series{Name: s.Method}
			byMethod[s.Method] = ser
			order = append(order, s.Method)
		}
		ser.X = append(ser.X, s.Contamination)
		ser.Y = append(ser.Y, s.MeanAUC)
	}
	series := make([]plot.Series, 0, len(order))
	for _, name := range order {
		series = append(series, *byMethod[name])
	}
	return plot.Lines("Fig.3: mean AUC vs contamination", 64, 16, series...)
}

func runOne(id string, reps int, seed int64, n, parallel int, methods, csvOut string) error {
	abl := experiments.AblationOptions{Repetitions: reps, Seed: seed, Parallel: parallel}
	switch id {
	case "fig1":
		res, err := experiments.RunFig1(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.FormatFig1())
		// The (x1, x2) projection of Fig. 1(b): inlier circles vs the
		// figure-eight outlier.
		var in, out plot.Series
		in.Name, out.Name = "inliers", "outlier"
		for i, smp := range res.Data.Samples {
			if res.Data.Labels[i] == 1 {
				out.X = append(out.X, smp.Values[0]...)
				out.Y = append(out.Y, smp.Values[1]...)
			} else {
				in.X = append(in.X, smp.Values[0]...)
				in.Y = append(in.Y, smp.Values[1]...)
			}
		}
		fmt.Print(plot.Scatter("Fig.1(b): (x1, x2) projection", 64, 22, in, out))
	case "fig2":
		pts, err := experiments.RunFig2(30, seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig2(pts))
	case "fig3":
		opt := experiments.Fig3Options{
			N: n, Repetitions: reps, Seed: seed, Parallel: parallel,
		}
		if methods != "" {
			opt.Methods = strings.Split(methods, ",")
		}
		sums, err := experiments.RunFig3(opt)
		if err != nil {
			return err
		}
		fmt.Println("Fig.3 reproduction: AUC vs training contamination (mean ± std over repetitions)")
		fmt.Print(eval.FormatTable(sums))
		fmt.Print(fig3Chart(sums))
		if csvOut != "" {
			if err := writeSummariesCSV(csvOut, sums); err != nil {
				return fmt.Errorf("write csv: %w", err)
			}
			fmt.Printf("(summaries written to %s)\n", csvOut)
		}
	case "ablation-map":
		rows, err := experiments.RunMappingAblation(abl)
		if err != nil {
			return err
		}
		fmt.Println("Mapping-function ablation: iFor AUC per taxonomy outlier class, c = 0.10")
		fmt.Print(experiments.FormatMappingAblation(rows))
	case "ablation-basis":
		rows, err := experiments.RunBasisAblation(abl)
		if err != nil {
			return err
		}
		fmt.Println("Smoothing sensitivity: iFor(Curvmap) AUC with fixed basis size / penalty, c = 0.10")
		fmt.Print(experiments.FormatBasisAblation(rows))
	case "ablation-detector":
		sums, err := experiments.RunDetectorAblation(abl)
		if err != nil {
			return err
		}
		fmt.Println("Detector ablation on curvature features across contaminations")
		fmt.Print(eval.FormatTable(sums))
	case "depth-issues":
		rows, err := experiments.RunDepthIssues(abl)
		if err != nil {
			return err
		}
		fmt.Println("Sec.1.2 issues: depth-family vs geometric pipeline per outlier class, c = 0.10")
		fmt.Print(experiments.FormatDepthIssues(rows))
	case "dirout-decomp":
		rows, err := experiments.RunDirOutDecomposition(abl)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatDirOutDecomposition(rows))
	case "ensemble":
		res, err := experiments.RunEnsemble(abl)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatEnsemble(res))
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
