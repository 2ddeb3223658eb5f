// Command benchmark is the repository benchmark. It fits the paper's
// iFor(Curvmap) model once, serves it from three in-process mfodserve
// replicas behind one mfodgate, drives one named workload against that
// fleet, checks every returned score bitwise against a reference
// pipeline, and prints one "metric workload value unit n" line per
// metric followed by one JSON result line.
//
// Usage, from the root of the repository (run.sh builds the binary):
//
//	bash benchmark/run.sh --workload interactive --seed 1 --seconds 16 --trace 0
//
// Workloads: interactive, bulk, mixed-grid, stream. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes the span file (--trace-out). README.md explains both.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// config is one benchmark run.
type config struct {
	wl        workload
	seed      int64
	measure   time.Duration // measured seconds; split in two halves when tracing
	warmup    time.Duration
	trace     bool
	setupReps int    // set-ups per run; setup_s is their median
	dir       string // model and topology files of the run
	traceOut  string // span file of a traced run
}

// metric is one reported number and its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is the outcome of one run. e2e is always filled; layer only
// in a traced run.
type report struct {
	correct           bool
	attempted, failed int
	problems          []string
	e2e, layer        []metric
}

func main() {
	name := flag.String("workload", "", "workload: interactive, bulk, mixed-grid or stream")
	seed := flag.Int64("seed", 1, "seed of the request curves, grid jitter and arrival schedule")
	seconds := flag.Float64("seconds", 16, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload interactive|bulk|mixed-grid|stream --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := config{
		wl:        wl,
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		warmup:    3 * time.Second,
		trace:     *trace == 1,
		setupReps: 9,
		dir:       dir,
		traceOut:  *traceOut,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", wl.name, *seed))
	}
	rep, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	ms := rep.e2e
	if cfg.trace {
		ms = rep.layer
	}
	writeReport(os.Stdout, wl.name, rep, ms)
	if !rep.correct {
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "benchmark:", p)
		}
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// writeReport prints one line per metric and the JSON result line last.
func writeReport(w io.Writer, workload string, rep *report, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s %d\n", m.name, workload, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.n)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

// run boots the fleet, drives the workload and verifies every score.
func run(cfg config) (*report, error) {
	in, err := newInputs(cfg.seed, cfg.wl)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	var fl *fleet
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if fl != nil {
			fl.close()
			client.CloseIdleConnections()
		}
		runtime.GC()
		var bootErr error
		cpu, slow, err := meteredCPU(setupProbeEvery, func() {
			fl, bootErr = bootFleet(cfg.dir, rec, client, scoreBody(in.corpus[0]))
		})
		if err = errors.Join(err, bootErr); err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds()/slow)
	}
	defer fl.close()

	lg := &loadgen{fl: fl, in: in, wl: cfg.wl, client: client, rec: rec}
	senders := min(2, runtime.NumCPU())
	if _, err := lg.run(phaseWarmup, cfg.warmup, senders, false, false); err != nil {
		return nil, err
	}
	window := cfg.measure
	if cfg.trace {
		window /= 2
	}
	a, err := lg.run(phaseMeasure, window, senders, false, cfg.trace)
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB()

	rep := &report{}
	phases := []*phase{a}
	var tr *tracedRun
	if cfg.trace {
		if tr, err = lg.traced(cfg, window); err != nil {
			return nil, err
		}
		phases = append(phases, tr.b)
		if tr.stats.negativeSelfs > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%d spans with negative self time", tr.stats.negativeSelfs))
		}
	}

	for _, ph := range phases {
		if err := verify(fl.modelPath, in, ph.ops); err != nil {
			return nil, err
		}
		rep.attempted += len(ph.ops)
		rep.failed += ph.extraFail
		for _, o := range ph.ops {
			if !o.ok {
				rep.failed++
			}
		}
	}
	if rep.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d operations failed or returned a wrong score", rep.failed, rep.attempted))
	}
	proof := prove(cfg.wl, a)
	rep.problems = append(rep.problems, proof.problems(cfg.wl)...)
	rep.correct = len(rep.problems) == 0
	rep.e2e = e2eMetrics(a, setups, heapMB)
	if tr != nil {
		rep.layer = layerMetrics(proof, a, tr)
	}
	return rep, nil
}

// tracedRun is what the second half of a traced run, the layer ladder
// and the direct timings measured.
type tracedRun struct {
	b      *phase
	stats  traceStats
	layers []metric // the ladder's and the direct timings'
}

// traced runs the traced half with one sender, writes its span file,
// then replays the workload through the ladder and times the direct
// calls.
func (lg *loadgen) traced(cfg config, window time.Duration) (*tracedRun, error) {
	b, err := lg.run(phaseTraced, window, 1, true, false)
	if err != nil {
		return nil, err
	}
	lines := link(lg.rec.take())
	if err := writeSpans(cfg.traceOut, lines); err != nil {
		return nil, err
	}
	lr, err := newReplica("ladder", lg.fl.modelPath, nil, -1)
	if err != nil {
		return nil, err
	}
	defer lr.close()
	lad, err := lg.ladder(lr, ladderOps(cfg.wl, cfg.measure))
	if err != nil {
		return nil, err
	}
	m, _ := lr.reg.Get(modelName)
	dir, err := lg.directs(m.Pipeline(), min(200, 10+int(10*cfg.measure.Seconds())))
	if err != nil {
		return nil, err
	}
	return &tracedRun{b: b, stats: analyze(lines), layers: append(lad, dir...)}, nil
}

// ladderOps sizes the ladder replay to the run length.
func ladderOps(wl workload, measure time.Duration) int {
	secs := measure.Seconds()
	switch {
	case wl.jitter:
		return max(10, int(10*secs))
	case wl.shape == shapeScore:
		return max(20, int(50*secs))
	case wl.shape == shapeJob:
		return max(4, int(secs))
	default:
		return max(2, int(2*secs))
	}
}

// e2eMetrics are the costs a user of the fleet pays, from the untraced
// measured phase: CPU time per curve scored, set-up CPU time and live
// memory. The times are CPU time, not wall time, divided by the speed
// meter's slowdown; README.md shows why wall time cannot hold a bound
// on a shared host.
func e2eMetrics(a *phase, setups []float64, heapMB float64) []metric {
	curves := scoredCurves(a)
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"cpu_us_per_curve", ratio(micros(a.cpu), curves) / a.slowdown, "us", int(curves)},
		{"heap_end_mb", heapMB, "MB", 1},
	}
}

// clientMetrics are the wall-clock numbers the load generator sees:
// latency per operation, timed from its scheduled send time, time to
// the first score, and curves scored per second.
func clientMetrics(a *phase) []metric {
	var lat, first []float64
	for _, o := range a.ops {
		lat = append(lat, millis(o.latency()))
		if o.hasFirst {
			first = append(first, millis(o.first))
		}
	}
	sort.Float64s(lat)
	return []metric{
		{"client.p50_ms", percentile(lat, 0.50), "ms", len(lat)},
		{"client.p95_ms", percentile(lat, 0.95), "ms", len(lat)},
		{"client.ttfr_ms", median(first), "ms", len(first)},
		{"client.curves_per_s", scoredCurves(a) / a.elapsed.Seconds(), "curves/s", len(a.ops)},
	}
}

// scoredCurves counts the curves' worth of points the phase's
// successful operations scored.
func scoredCurves(a *phase) float64 {
	var curves float64
	for _, o := range a.ops {
		if o.ok {
			curves += o.curves
		}
	}
	return curves
}

// loadProof holds the numbers that show a phase put the intended load
// on the fleet.
type loadProof struct {
	offered  float64 // sent over scheduled arrivals
	lagP99Ms float64 // how late the generator sent
	unique   float64 // share of curves sent on a grid no other curve used
	minLegs  float64 // bulk chunks served by the least-used replica
	retries  int
	fits     uint64 // incremental refits over the phase
	scored   int    // appends answered with a score
}

func prove(wl workload, a *phase) loadProof {
	p := loadProof{offered: 1, retries: a.retries, scored: a.scored}
	if wl.rate > 0 && a.scheduled > 0 {
		p.offered = float64(len(a.ops)) / float64(a.scheduled)
		var lags []float64
		for _, o := range a.ops {
			lags = append(lags, millis(o.sent-o.due))
		}
		sort.Float64s(lags)
		p.lagP99Ms = percentile(lags, 0.99)
	}
	var once, total int
	for _, n := range a.grids {
		total += n
		if n == 1 {
			once++
		}
	}
	if total > 0 {
		p.unique = float64(once) / float64(total)
	}
	if wl.shape == shapeJob {
		for i, name := range replicaNames {
			if n := a.after.legs[name] - a.before.legs[name]; i == 0 || n < p.minLegs {
				p.minLegs = n
			}
		}
	}
	p.fits = a.after.fits - a.before.fits
	return p
}

// problems lists every way the phase failed to put its load on the
// fleet; a benchmark whose load did not happen measures nothing.
func (p loadProof) problems(wl workload) []string {
	var out []string
	if wl.rate > 0 && p.offered < 0.98 {
		out = append(out, fmt.Sprintf("offered ratio %.3f < 0.98: the generator fell behind", p.offered))
	}
	if wl.jitter && math.Abs(p.unique-0.5) > 0.02 {
		out = append(out, fmt.Sprintf("unique-grid share %.3f, want 0.5 ± 0.02", p.unique))
	}
	if !wl.jitter && p.unique != 0 {
		out = append(out, fmt.Sprintf("unique-grid share %.3f, want 0", p.unique))
	}
	if wl.shape == shapeJob && p.minLegs < 1 {
		out = append(out, "a replica served no bulk chunk")
	}
	if p.retries != 0 {
		out = append(out, fmt.Sprintf("%d chunk retries on a healthy fleet", p.retries))
	}
	if wl.shape == shapeAppend && p.fits != uint64(p.scored) {
		out = append(out, fmt.Sprintf("%d refits for %d scored appends, want exactly one each", p.fits, p.scored))
	}
	return out
}

// layerMetrics assembles the per-layer numbers of a traced run: the
// counters and load proof of the untraced half a, then what the traced
// half, the ladder and the direct timings measured.
func layerMetrics(proof loadProof, a *phase, tr *tracedRun) []metric {
	curves := scoredCurves(a)
	var traced, untraced []float64
	for _, o := range tr.b.ops {
		if o.traced {
			traced = append(traced, micros(o.done-o.sent))
		} else {
			untraced = append(untraced, micros(o.done-o.sent))
		}
	}
	before, after := a.before, a.after
	usedCPU := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	ts, n := tr.stats, tr.stats.requests
	out := append(clientMetrics(a), []metric{
		{"trace.client_self_us", ts.selfUs[kindClient], "us", n},
		{"trace.gate_self_us", ts.selfUs[kindGate], "us", n},
		{"trace.replica_self_us", ts.selfUs[kindReplica], "us", n},
		{"trace.map_us", ts.selfUs[kindMap], "us", n},
		{"trace.detect_us", ts.selfUs[kindDetect], "us", n},
		{"trace.overhead_ratio", ratio(median(traced), median(untraced)), "ratio", len(tr.b.ops)},
		{"gate.legs_per_request", ts.legsPerGate, "count", n},
	}...)
	out = append(out, tr.layers...)
	return append(out, []metric{
		{"serve.batch_mean", ratio(after.batchSum-before.batchSum, after.batchCount-before.batchCount), "count", 1},
		{"serve.queue_depth_max", float64(a.queueMax), "count", 1},
		{"serve.wasted", float64(after.wasted - before.wasted), "count", 1},
		{"serve.evicted", float64(after.evicted - before.evicted), "count", 1},
		{"jobs.retries", float64(proof.retries), "count", 1},
		{"jobs.chunk_spread", proof.minLegs, "count", 1},
		{"stream.fits_per_append", ratio(float64(proof.fits), float64(proof.scored)), "ratio", proof.scored},
		{"grid.unique_share", proof.unique, "ratio", len(a.ops)},
		{"loadgen.lag_p99_ms", proof.lagP99Ms, "ms", len(a.ops)},
		{"loadgen.offered_ratio", proof.offered, "ratio", a.scheduled},
		{"runtime.allocs_per_curve", ratio(float64(after.mallocs-before.mallocs), curves), "count", 1},
		{"runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, usedCPU), "ratio", 1},
		{"host.slowdown", a.slowdown, "ratio", 1},
	}...)
}

// runtimeCounters reads the Go runtime's cumulative allocation count and
// CPU accounting.
func runtimeCounters() (mallocs uint64, gcCPU, totalCPU, idleCPU float64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank p-quantile of sorted; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median sorts a copy of xs and returns its middle value (the mean of
// the two middle values for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if !(b > 0) {
		return 0
	}
	return a / b
}
