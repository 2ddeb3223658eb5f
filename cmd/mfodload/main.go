// Command mfodload replays scoring traffic against an mfodserve replica
// or an mfodgate front tier and writes a BENCH report. Every mode runs
// through one open-loop pacer (pace) and reports the same scenario
// record; the modes differ only in the operations they pace, the totals
// they add and the gates they check:
//
//   - plain load: one steady scenario of batch scoring requests at -rps,
//     plus the bytes-per-request cost of the binary wire codec next to
//     JSON for the same curves (BENCH_serve.json);
//   - -slo: the SLO chaos harness, four scripted scenarios with a real
//     client deadline on every request (slo.go, BENCH_slo.json);
//   - -jobs: back-to-back bulk jobs beside paced interactive traffic
//     (jobs.go, BENCH_jobs.json);
//   - -streams: live streams completed chunk by chunk (streams.go,
//     BENCH_streaming.json).
//
// Usage:
//
//	mfodload -url http://gate:9090 -model ecg -replay body.json
//	         [-codec wire|json] [-rps 100] [-duration 10s]
//	         [-concurrency 32] [-batch 4] [-o BENCH_serve.json]
//
//	mfodload -self 3 [-slo | -jobs | -streams N] [-rps 100] ...
//
// -replay takes an `mfodgen -json` document (the mfodserve /v1/score
// body shape). -self N needs no running servers or replay file: it fits a
// small pipeline, boots N in-process mfodserve replicas plus an mfodgate
// over them, and load-tests that — the hermetic mode the Makefile bench
// targets and CI use. The -slo, -jobs and -streams modes require it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/gate"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/wire"
)

type loadOptions struct {
	url         string
	selfFleet   int
	model       string
	replay      string
	codec       string
	rps         float64
	duration    time.Duration
	concurrency int
	batch       int
	out         string

	// SLO chaos-harness mode (-slo): scripted scenarios over the
	// hermetic -self fleet, gated on goodput and wasted work.
	slo           bool
	deadline      time.Duration
	sloMinGoodput float64
	sloMaxWasted  int

	// Bulk-scoring benchmark mode (-jobs): one async job through the
	// gate while interactive traffic runs beside it.
	jobs        bool
	jobsSamples int
	jobsChunk   int
	jobsMaxTTFR time.Duration
	jobsMaxP99  time.Duration

	// Streaming-ingestion benchmark mode (-streams): N live streams
	// driven chunk-by-chunk through the gate, gated on streams/sec.
	streams        int
	streamChunk    int
	streamsMinRate float64
}

func main() {
	var o loadOptions
	flag.StringVar(&o.url, "url", "", "target base URL (an mfodgate or mfodserve)")
	flag.IntVar(&o.selfFleet, "self", 0, "boot N in-process replicas + gate and load-test those (no -url/-replay needed)")
	flag.StringVar(&o.model, "model", "ecg", "model name to score against")
	flag.StringVar(&o.replay, "replay", "", "mfodgen -json document to replay (required with -url)")
	flag.StringVar(&o.codec, "codec", "wire", "request encoding: wire or json")
	flag.Float64Var(&o.rps, "rps", 100, "target operations per second: requests, or streams with -streams")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "how long to drive load (per scenario with -slo)")
	flag.IntVar(&o.concurrency, "concurrency", 32, "max in-flight operations; ticks beyond it are skipped and reported")
	flag.IntVar(&o.batch, "batch", 4, "curves per scoring request")
	flag.StringVar(&o.out, "o", "BENCH_serve.json", "report path (- = stdout; BENCH_slo/jobs/streaming.json default with -slo/-jobs/-streams)")
	flag.BoolVar(&o.slo, "slo", false, "run the scripted SLO chaos scenarios against the -self fleet instead of a plain load run")
	flag.DurationVar(&o.deadline, "deadline", 500*time.Millisecond, "per-request client deadline in -slo mode, propagated via "+resilience.DeadlineHeader)
	flag.Float64Var(&o.sloMinGoodput, "slo-min-goodput", 0.9, "fail the -slo run when any non-overload scenario's goodput drops below this")
	flag.IntVar(&o.sloMaxWasted, "slo-max-wasted", 0, "fail the -slo run when fleet-wide wasted work exceeds this (-1 disables)")
	flag.BoolVar(&o.jobs, "jobs", false, "run the bulk-scoring benchmark against the -self fleet instead of a plain load run")
	flag.IntVar(&o.jobsSamples, "jobs-samples", 512, "curves in the bulk job")
	flag.IntVar(&o.jobsChunk, "jobs-chunk", 64, "chunk size for the bulk job (0 = gate default)")
	flag.DurationVar(&o.jobsMaxTTFR, "jobs-max-ttfr", 5*time.Second, "fail the -jobs run when the first result takes longer than this (0 disables)")
	flag.DurationVar(&o.jobsMaxP99, "jobs-max-p99", 0, "fail the -jobs run when interactive p99 under bulk load exceeds this (0 disables)")
	flag.IntVar(&o.streams, "streams", 0, "run the streaming-ingestion benchmark: complete N streams through the -self fleet")
	flag.IntVar(&o.streamChunk, "stream-chunk", 6, "points per append in -streams mode")
	flag.Float64Var(&o.streamsMinRate, "streams-min-rate", 0, "fail the -streams run when completed streams/sec drops below this (0 disables)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mfodload:", err)
		os.Exit(1)
	}
}

// run checks the shared options, drives the selected mode and writes
// its report.
func run(o loadOptions) error {
	if o.codec != "wire" && o.codec != "json" {
		return fmt.Errorf("bad -codec %q, want wire or json", o.codec)
	}
	if o.rps <= 0 || o.duration <= 0 || o.concurrency <= 0 || o.batch <= 0 {
		return errors.New("-rps, -duration, -concurrency and -batch must be positive")
	}
	mode, drive := "serve", runPlain
	switch {
	case o.streams > 0:
		mode, drive = "streaming", runStreams
	case o.jobs:
		mode, drive = "jobs", runJobs
	case o.slo:
		mode, drive = "slo", runSLO
	}
	if mode != "serve" && o.selfFleet <= 0 {
		return fmt.Errorf("the %s benchmark needs -self N: it measures the hermetic in-process fleet", mode)
	}
	if o.out == "BENCH_serve.json" {
		o.out = "BENCH_" + mode + ".json"
	}
	rep, err := drive(o)
	if err != nil {
		return err
	}
	return rep.write(o.out)
}

// runPlain drives one steady scenario of batch scoring requests and
// fails on any answer but 200, 429s included.
func runPlain(o loadOptions) (*report, error) {
	var d fda.Dataset
	base := o.url
	switch {
	case o.selfFleet > 0:
		fleet, err := bootSelfFleet(o.selfFleet, o.model,
			serve.PoolOptions{QueueCap: 256}, 500*time.Millisecond)
		if err != nil {
			return nil, err
		}
		base, d = fleet.base, fleet.d
	case o.url != "":
		if o.replay == "" {
			return nil, errors.New("-url needs -replay (an `mfodgen -json` document)")
		}
		raw, err := os.ReadFile(o.replay)
		if err != nil {
			return nil, err
		}
		if d, err = dataset.ReadJSON(bytes.NewReader(raw)); err != nil {
			return nil, fmt.Errorf("replay %s: %w", o.replay, err)
		}
	default:
		return nil, errors.New("either -url or -self N is required")
	}

	bodies, bytesPerRequest, err := buildBodies(d, o.batch, o.codec)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	target := scoreURL(base, o.model)
	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()
	s := pace(ctx, "steady", o.rps, o.concurrency, nil, func(i int) outcome {
		return post(context.Background(), client, target, contentTypeFor(o.codec), bodies[i%len(bodies)])
	})

	rep := &report{Mode: "serve", Target: base, Fleet: o.selfFleet, Model: o.model, Codec: o.codec,
		Scenarios: []scenario{s},
		// The request-body size of the SAME curves under each codec, so
		// the wire savings are part of every bench run.
		Totals: map[string]any{"bytesPerRequest": bytesPerRequest},
	}
	rep.failIf(s.OK < s.Requests, "%d/%d requests not answered 200", s.Requests-s.OK, s.Requests)
	return rep, nil
}

// contentTypeFor maps a -codec value to its media type.
func contentTypeFor(codec string) string {
	if codec == "wire" {
		return wire.ContentType
	}
	return "application/json"
}

// scoreURL is the synchronous scoring route for model at base.
func scoreURL(base, model string) string {
	return base + "/v1/score?model=" + url.QueryEscape(model)
}

// buildBodies pre-encodes rotating windows of batch curves under the
// chosen codec, and returns the average bytes-per-request of the same
// windows under both codecs for the report.
func buildBodies(d fda.Dataset, batch int, codec string) (bodies [][]byte, bytesPerRequest map[string]int, err error) {
	n := len(d.Samples)
	batch = min(batch, n)
	windows := min(n, 64) // bound pre-encoding work; rotation reuses them
	bytesPerRequest = map[string]int{}
	for w := 0; w < windows; w++ {
		sub := fda.Dataset{Samples: make([]fda.Sample, batch)}
		for i := range sub.Samples {
			sub.Samples[i] = d.Samples[(w+i)%n]
		}
		var jb bytes.Buffer
		if err := dataset.WriteJSON(&jb, sub); err != nil {
			return nil, nil, err
		}
		encoded := map[string][]byte{"json": jb.Bytes(), "wire": wire.EncodeRequest(wire.Request{Dataset: sub})}
		for c, b := range encoded {
			bytesPerRequest[c] += len(b)
		}
		bodies = append(bodies, encoded[codec])
	}
	for c := range bytesPerRequest {
		bytesPerRequest[c] /= windows
	}
	return bodies, bytesPerRequest, nil
}

// post sends one scoring request and classifies the answer. When ctx
// carries a deadline, the remaining budget is propagated downstream via
// the deadline header, and a request the deadline overtook is late.
func post(ctx context.Context, client *http.Client, target, contentType string, body []byte) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return failed
	}
	req.Header.Set("Content-Type", contentType)
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(resilience.DeadlineHeader, strconv.FormatInt(time.Until(dl).Milliseconds(), 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return late
		}
		return failed
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return shed
	case resp.StatusCode != http.StatusOK:
		return failed
	case ctx.Err() != nil:
		return late // answered, but after the caller walked away
	}
	return served
}

// outcome classifies one paced operation.
type outcome int

const (
	served outcome = iota // 200, inside the deadline if there was one
	shed                  // 429: honest backpressure
	late                  // answered, or abandoned, after the client deadline
	failed                // anything else
)

// scenario is one load phase's scorecard, the record every mode
// reports whether the phase was paced or (bulk jobs) closed-loop.
type scenario struct {
	Name      string  `json:"name"`
	TargetRPS float64 `json:"targetRps,omitempty"`
	ElapsedS  float64 `json:"elapsedS"`
	// Requests counts the operations sent; Skipped counts pacing ticks
	// that found every in-flight slot busy and sent nothing.
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Late     int `json:"late"`
	Errors   int `json:"errors"`
	Skipped  int `json:"skipped"`
	// Goodput is OK over every tick offered, sent or skipped: a request
	// the script wanted to send and never did is not good.
	Goodput     float64 `json:"goodput"`
	AchievedRPS float64 `json:"achievedRps"`
	LatencyMs   latency `json:"latencyMs"`
	// Injected counts the faults that fired during the scenario. A fault
	// scenario that injected nothing proves nothing.
	Injected uint64 `json:"injected,omitempty"`
}

// latency summarizes operation latencies in milliseconds.
type latency struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// summarize sorts samples (milliseconds) and reads their nearest-rank
// percentiles, mean and max.
func summarize(samples []float64) latency {
	if len(samples) == 0 {
		return latency{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	at := func(p float64) float64 {
		rank := int(math.Ceil(p*float64(len(samples)))) - 1
		return samples[min(max(rank, 0), len(samples)-1)]
	}
	return latency{P50: at(0.50), P99: at(0.99), P999: at(0.999),
		Mean: sum / float64(len(samples)), Max: samples[len(samples)-1]}
}

// ms converts a duration to float milliseconds at microsecond precision.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// tally accumulates one scenario's outcomes; safe for concurrent use.
type tally struct {
	mu sync.Mutex
	s  scenario
	ms []float64
}

func (t *tally) add(o outcome, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s.Requests++
	t.ms = append(t.ms, ms(d))
	switch o {
	case served:
		t.s.OK++
	case shed:
		t.s.Shed++
	case late:
		t.s.Late++
	default:
		t.s.Errors++
	}
}

// done scores the tally over elapsed wall time.
func (t *tally) done(elapsed time.Duration) scenario {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.s
	s.ElapsedS = elapsed.Seconds()
	if offered := s.Requests + s.Skipped; offered > 0 {
		s.Goodput = float64(s.OK) / float64(offered)
	}
	s.AchievedRPS = float64(s.Requests) / elapsed.Seconds()
	s.LatencyMs = summarize(t.ms)
	return s
}

// pace is the open-loop pacer every mode shares. It starts op(i) at rps
// until ctx ends, at most concurrency at once: a tick that finds every
// slot busy is skipped and counted, so a saturated target degrades the
// achieved rate instead of building an unbounded goroutine backlog. tick,
// when set, runs on the pacing goroutine before each operation (scripted
// chaos, or a stop after a fixed count). pace returns once every
// operation it started has finished.
func pace(ctx context.Context, name string, rps float64, concurrency int, tick func(i int), op func(i int) outcome) scenario {
	t := &tally{s: scenario{Name: name, TargetRPS: rps}}
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rps)
	start := time.Now()
	skipped := 0
	for i, next := 0, start; ; i, next = i+1, next.Add(interval) {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(next)):
		}
		if ctx.Err() != nil {
			break
		}
		if tick != nil {
			tick(i)
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			//mfodlint:allow poolmisuse load-generator operation goroutine: bounded by the concurrency semaphore and joined via the WaitGroup before pace returns
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				t.add(op(i), time.Since(t0))
			}()
		default:
			skipped++
		}
	}
	wg.Wait()
	t.s.Skipped = skipped
	return t.done(time.Since(start))
}

// report is the BENCH document every mode writes: the run's target, its
// scenarios, the mode's own totals and the verdict of the gates the
// mode checked.
type report struct {
	Mode      string         `json:"mode"`
	Target    string         `json:"target"`
	Fleet     int            `json:"fleet,omitempty"`
	Model     string         `json:"model"`
	Codec     string         `json:"codec"`
	Scenarios []scenario     `json:"scenarios"`
	Totals    map[string]any `json:"totals,omitempty"`
	Pass      bool           `json:"pass"`
	Failures  []string       `json:"failures,omitempty"`
}

// failIf records a gate violation when bad holds.
func (r *report) failIf(bad bool, format string, args ...any) {
	if bad {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// write encodes the report to path (- = stdout), prints one line per
// scenario, and fails when any gate was violated.
func (r *report) write(path string) error {
	r.Pass = len(r.Failures) == 0
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
	} else {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		fmt.Fprintf(os.Stderr,
			"mfodload: %-13s %5d req %5d ok %4d shed %3d late %3d err %3d skipped, goodput=%.3f %.1f/s p50=%.2fms p99=%.2fms p999=%.2fms injected=%d\n",
			s.Name, s.Requests, s.OK, s.Shed, s.Late, s.Errors, s.Skipped, s.Goodput, s.AchievedRPS,
			s.LatencyMs.P50, s.LatencyMs.P99, s.LatencyMs.P999, s.Injected)
	}
	totals, _ := json.Marshal(r.Totals) // cannot fail: the whole report just encoded
	fmt.Fprintf(os.Stderr, "mfodload: %s totals %s pass=%v\n", r.Mode, totals, r.Pass)
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "mfodload: FAIL:", f)
	}
	if !r.Pass {
		return fmt.Errorf("%s gate failed", r.Mode)
	}
	return nil
}

// selfReplica is one in-process mfodserve of the hermetic fleet, with
// the chaos controls the SLO harness scripts against: an injectable
// scoring latency and a graceful kill.
type selfReplica struct {
	name string
	url  string
	srv  *http.Server
	pool *serve.Pool
	// slowNs is extra latency (nanoseconds) injected in front of
	// /v1/score; slowed counts the requests it delayed.
	slowNs atomic.Int64
	slowed atomic.Uint64
}

// Slow sets the injected pre-scoring latency (0 clears it).
func (r *selfReplica) Slow(d time.Duration) { r.slowNs.Store(int64(d)) }

// Kill shuts the replica's HTTP server down: the listener closes at
// once (new connections are refused — the gate sees a dead replica),
// in-flight requests get a short grace so a kill does not manufacture
// wasted work the scenario never caused.
func (r *selfReplica) Kill() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
}

// selfFleet is the hermetic serving tier: n replicas behind a gate.
type selfFleet struct {
	base     string // gate base URL
	d        fda.Dataset
	replicas []*selfReplica
}

// replica returns the fleet member with the given topology name.
func (f *selfFleet) replica(name string) *selfReplica {
	for _, r := range f.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// poolTotal sums one pool counter (Wasted, Cancelled, Evicted) across
// the fleet.
func (f *selfFleet) poolTotal(counter func(*serve.Pool) uint64) (n uint64) {
	for _, r := range f.replicas {
		n += counter(r.pool)
	}
	return n
}

// bootSelfFleet fits a small pipeline, boots n in-process mfodserve
// replicas holding it under the given model name, wires an mfodgate
// over them, and returns the fleet handle plus curves to replay. The
// servers live for the process; mfodload exits when the run ends.
func bootSelfFleet(n int, model string, popt serve.PoolOptions, healthInterval time.Duration) (*selfFleet, error) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 40, Points: 60, Seed: 11})
	if err != nil {
		return nil, err
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: 11}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mfodload")
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, "model.json")
	f, err := os.Create(modelPath)
	if err != nil {
		return nil, err
	}
	if err := p.SaveJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	fleet := &selfFleet{d: d}
	topo := gate.Topology{VNodes: 64}
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry()
		if err := reg.Load(model, modelPath); err != nil {
			return nil, err
		}
		pool := serve.NewPool(popt)
		streams, err := serve.NewStreamManager(reg, nil, serve.StreamOptions{})
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool, Streams: streams, Logger: quiet})
		if err != nil {
			return nil, err
		}
		rep := &selfReplica{name: fmt.Sprintf("self-%d", i), pool: pool}
		inner := srv.Handler()
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if d := time.Duration(rep.slowNs.Load()); d > 0 && r.URL.Path == "/v1/score" {
				rep.slowed.Add(1)
				time.Sleep(d)
			}
			inner.ServeHTTP(w, r)
		})
		addr, hs, err := serveOn(wrapped)
		if err != nil {
			return nil, err
		}
		rep.url = "http://" + addr
		rep.srv = hs
		fleet.replicas = append(fleet.replicas, rep)
		topo.Replicas = append(topo.Replicas, gate.Replica{Name: rep.name, URL: rep.url})
	}
	topoPath := filepath.Join(dir, "topology.json")
	raw, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(topoPath, raw, 0o644); err != nil {
		return nil, err
	}
	table, err := gate.LoadTable(topoPath)
	if err != nil {
		return nil, err
	}
	health := &gate.Health{Interval: healthInterval}
	health.Run(table, make(chan struct{}))
	g, err := gate.New(gate.Config{Table: table, Health: health, Logger: quiet, EnableJobs: true})
	if err != nil {
		return nil, err
	}
	addr, _, err := serveOn(g.Handler())
	if err != nil {
		return nil, err
	}
	fleet.base = "http://" + addr
	return fleet, nil
}

// serveOn binds a loopback listener and serves h on it for the life of
// the process.
func serveOn(h http.Handler) (addr string, srv *http.Server, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv = &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return context.Background() }}
	//mfodlint:allow poolmisuse self-fleet server goroutine: one accept loop per in-process replica of the hermetic bench mode, alive until the load run finishes and the process exits
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}
