package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fda"
	"repro/internal/iforest"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// Hotpath benchmarks the smoothing/scoring hot path — the inner loop every
// experiment, the CLI and the serving subsystem pay for — in two
// configurations: the sequential seed path (one worker, no basis cache)
// and the optimized path (bounded worker pool + shared BasisCache). It
// also times the two refit paths a warm cache cannot serve (a stream
// refit after every append, and scoring on a grid never seen before),
// and the decode of one curve's JSON request body, which the serving
// tiers pay before any scoring.
// The report is machine-readable so CI can archive it and fail the
// build when the optimization regresses; see cmd/mfodbench -bench.

// HotpathOptions configures the hot-path benchmark.
type HotpathOptions struct {
	// N is the fig3 dataset size; 0 means 200.
	N int
	// Seed drives data generation and the detector.
	Seed int64
	// Parallel bounds the optimized path's worker pool; 0 means
	// GOMAXPROCS (the sequential baseline always runs with 1).
	Parallel int
	// MinSpeedup, when > 0, makes RunHotpath fail unless both the fit and
	// the score speedups reach it. CI uses 2.
	MinSpeedup float64
}

// HotpathStage holds one benchmarked configuration of one stage: the
// median of its hotpathPasses passes.
type HotpathStage struct {
	NsPerOp     int64 `json:"nsPerOp"`
	AllocsPerOp int64 `json:"allocsPerOp"`
}

// HotpathReport is the machine-readable result written to
// BENCH_hotpath.json. Speedups are sequential-ns / optimized-ns, so > 1
// means the optimized path is faster.
type HotpathReport struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	CPUs     int    `json:"cpus"`
	Workers  int    `json:"workers"`
	// Passes is how many testing.Benchmark passes time each stage.
	Passes int `json:"passes"`

	FitSequential   HotpathStage `json:"fitSequential"`
	FitOptimized    HotpathStage `json:"fitOptimized"`
	FitSpeedup      float64      `json:"fitSpeedup"`
	ScoreSequential HotpathStage `json:"scoreSequential"`
	ScoreOptimized  HotpathStage `json:"scoreOptimized"`
	ScoreSpeedup    float64      `json:"scoreSpeedup"`

	// StreamRefit is one curve arriving as streamAppend-point appends,
	// each followed by Incremental.Fit and ScorePartialFit (one op per
	// curve); FreshGridScore is one ScoreOne on a jittered grid the cache
	// has not seen. Neither has a floor.
	StreamRefit    HotpathStage `json:"streamRefit"`
	FreshGridScore HotpathStage `json:"freshGridScore"`
	// DecodeJSON is one wire.DecodeBody of the first curve's JSON body,
	// as wire.EncodeJSON renders it: the decode a replica, or the gate's
	// transcode, runs on every JSON scoring request.
	DecodeJSON HotpathStage `json:"decodeJSON"`

	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`

	// MaxAbsScoreDiff is the largest |sequential − optimized| pipeline
	// score over the dataset; RunHotpath fails when it exceeds 1e-12.
	MaxAbsScoreDiff float64 `json:"maxAbsScoreDiff"`
}

// hotpathTolerance bounds the sequential-vs-optimized score disagreement;
// see DESIGN.md for why it is 1e-12 rather than exactly zero.
const hotpathTolerance = 1e-12

// hotpathPasses is the number of passes per stage. One pass on a shared
// 2-vCPU host can read a stage 30% or more off its own previous pass;
// the median of several is what the speedup floor and a before/after
// comparison read. Allocation counts repeat from pass to pass.
const hotpathPasses = 5

// timedStage is one benchmarked stage and the report field its median
// lands in.
type timedStage struct {
	out *HotpathStage
	run func(b *testing.B)
}

// timeStages times every stage in hotpathPasses rounds of
// testing.Benchmark passes and stores each stage's median ns/op and
// allocs/op. Round k runs pass k of every stage, in order, before round
// k+1 starts, so a host slowdown that outlasts a pass moves one pass of
// each stage instead of every pass of one stage.
func timeStages(stages []timedStage) {
	ns := make([][]int64, len(stages))
	allocs := make([][]int64, len(stages))
	for pass := 0; pass < hotpathPasses; pass++ {
		for i, st := range stages {
			r := testing.Benchmark(st.run)
			ns[i] = append(ns[i], r.NsPerOp())
			allocs[i] = append(allocs[i], r.AllocsPerOp())
		}
	}
	for i, st := range stages {
		slices.Sort(ns[i])
		slices.Sort(allocs[i])
		*st.out = HotpathStage{NsPerOp: ns[i][hotpathPasses/2], AllocsPerOp: allocs[i][hotpathPasses/2]}
	}
}

func hotpathPipeline(seed int64, workers int, noCache bool) *core.Pipeline {
	p := CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}))
	p.Parallel = workers
	p.Smooth.NoCache = noCache
	return p
}

// RunHotpath benchmarks FitDataset and Pipeline.Score on the fig3-sized
// workload and verifies the optimized path scores within 1e-12 of the
// sequential one. It returns an error when the equivalence check — or,
// when MinSpeedup > 0, the speedup floor — fails, so CI can gate on it.
func RunHotpath(opt HotpathOptions) (*HotpathReport, error) {
	d, err := Fig3Dataset(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers(opt.Parallel, d.Len())
	rep := &HotpathReport{
		Workload: "fig3",
		N:        d.Len(),
		M:        d.Samples[0].Len(),
		CPUs:     runtime.NumCPU(),
		Workers:  workers,
		Passes:   hotpathPasses,
	}

	// Equivalence first: a fast benchmark of a wrong answer is worthless.
	seqPipe := hotpathPipeline(opt.Seed, 1, true)
	if err := seqPipe.Fit(d); err != nil {
		return nil, fmt.Errorf("hotpath: sequential fit: %w", err)
	}
	seqScores, err := seqPipe.Score(d)
	if err != nil {
		return nil, fmt.Errorf("hotpath: sequential score: %w", err)
	}
	optPipe := hotpathPipeline(opt.Seed, opt.Parallel, false)
	if err := optPipe.Fit(d); err != nil {
		return nil, fmt.Errorf("hotpath: optimized fit: %w", err)
	}
	optScores, err := optPipe.Score(d)
	if err != nil {
		return nil, fmt.Errorf("hotpath: optimized score: %w", err)
	}
	for i := range seqScores {
		if diff := math.Abs(seqScores[i] - optScores[i]); diff > rep.MaxAbsScoreDiff {
			rep.MaxAbsScoreDiff = diff
		}
	}
	if rep.MaxAbsScoreDiff > hotpathTolerance {
		return rep, fmt.Errorf("hotpath: optimized scores diverge from sequential by %g (tolerance %g)",
			rep.MaxAbsScoreDiff, hotpathTolerance)
	}

	// The JSON body of one curve, for the decode stage.
	body, err := wire.EncodeJSON(wire.Body{Request: wire.Request{Dataset: fda.Dataset{Samples: d.Samples[:1]}}})
	if err != nil {
		return nil, fmt.Errorf("hotpath: encode body: %w", err)
	}
	seqOpt := fda.Options{Parallel: 1, NoCache: true}
	cache := fda.NewBasisCache()
	fitOpt := fda.Options{Parallel: opt.Parallel, Cache: cache}
	rng := rand.New(rand.NewSource(opt.Seed))
	timeStages([]timedStage{
		// FitDataset. The optimized configuration keeps one cache across
		// iterations — the steady state of repeated experiment splits and
		// of a loaded serving model.
		{&rep.FitSequential, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fda.FitDataset(d, seqOpt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{&rep.FitOptimized, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fda.FitDataset(d, fitOpt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Pipeline.Score on the fitted pipelines from the equivalence
		// check (the optimized one's cache is already warm).
		{&rep.ScoreSequential, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := seqPipe.Score(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{&rep.ScoreOptimized, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := optPipe.Score(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The refit paths, on the optimized pipeline.
		{&rep.StreamRefit, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := streamCurve(optPipe, d.Samples[i%d.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{&rep.FreshGridScore, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := d.Samples[i%d.Len()]
				s.Times = jitterGrid(s.Times, rng)
				if _, err := optPipe.ScoreOne(s); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The JSON decode of one curve's request body.
		{&rep.DecodeJSON, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeBody("application/json", body); err != nil {
					b.Fatal(err)
				}
			}
		}},
	})

	if rep.FitOptimized.NsPerOp > 0 {
		rep.FitSpeedup = float64(rep.FitSequential.NsPerOp) / float64(rep.FitOptimized.NsPerOp)
	}
	if rep.ScoreOptimized.NsPerOp > 0 {
		rep.ScoreSpeedup = float64(rep.ScoreSequential.NsPerOp) / float64(rep.ScoreOptimized.NsPerOp)
	}
	stats := cache.Stats()
	rep.CacheHits = stats.Hits
	rep.CacheMisses = stats.Misses

	if opt.MinSpeedup > 0 {
		if rep.FitSpeedup < opt.MinSpeedup {
			return rep, fmt.Errorf("hotpath: FitDataset speedup %.2fx below required %.2fx", rep.FitSpeedup, opt.MinSpeedup)
		}
		if rep.ScoreSpeedup < opt.MinSpeedup {
			return rep, fmt.Errorf("hotpath: Pipeline.Score speedup %.2fx below required %.2fx", rep.ScoreSpeedup, opt.MinSpeedup)
		}
	}
	return rep, nil
}

// streamAppend is the points per append of the streamRefit stage, the
// append size of the repository benchmark's stream workload.
const streamAppend = 5

// streamCurve feeds s to a fresh incremental fitter streamAppend points
// at a time, refitting and partially scoring after every append: the
// stream path's work for one curve.
func streamCurve(p *core.Pipeline, s fda.Sample) error {
	inc, err := p.NewIncremental(len(s.Values))
	if err != nil {
		return err
	}
	vals := make([]float64, len(s.Values))
	for j, t := range s.Times {
		for k := range vals {
			vals[k] = s.Values[k][j]
		}
		if err := inc.Append(t, vals); err != nil {
			return err
		}
		if (j+1)%streamAppend != 0 && j+1 < len(s.Times) {
			continue
		}
		fit, err := inc.Fit()
		if err != nil {
			return err
		}
		lo, hi, _ := inc.Span()
		if _, _, _, err := p.ScorePartialFit(fit, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// jitterGrid returns ts with every interior time moved by up to ±10% of
// the mean spacing, so the grid is new to the basis cache; the
// endpoints stay, so the curve keeps its domain.
func jitterGrid(ts []float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), ts...)
	h := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	for j := 1; j < len(out)-1; j++ {
		out[j] += (2*rng.Float64() - 1) * 0.1 * h
	}
	return out
}
