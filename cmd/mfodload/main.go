// Command mfodload replays scoring traffic against an mfodserve replica
// or an mfodgate front tier at a target request rate and writes a
// latency/throughput report (BENCH_serve.json): p50/p99/p999 latency,
// achieved RPS and the error budget, plus the bytes-per-request cost of
// the binary wire codec next to JSON for the same curves.
//
// Usage:
//
//	mfodload -url http://gate:9090 -model ecg -replay body.json
//	         [-codec wire|json] [-rps 100] [-duration 10s]
//	         [-concurrency 32] [-batch 4] [-o BENCH_serve.json]
//
//	mfodload -self 3 [-rps 100] [-duration 10s] ...
//
// -replay takes an `mfodgen -json` document (the mfodserve /v1/score
// body shape). -self N needs no running servers or replay file: it fits a
// small pipeline, boots N in-process mfodserve replicas plus an mfodgate
// over them, and load-tests that — the hermetic mode `make bench-serve`
// and CI use.
//
// -slo switches to the SLO chaos harness (requires -self): scripted
// scenarios — baseline, a latency-faulted primary, a 2x overload burst,
// a replica kill — each request carrying a -deadline budget propagated
// via X-Mfod-Deadline-Ms. Writes per-scenario goodput/shed/p99 plus
// fleet-wide wasted work to BENCH_slo.json and exits nonzero when
// -slo-min-goodput or -slo-max-wasted is violated; `make bench-slo`
// runs it under the race detector.
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
	flag.Float64Var(&o.rps, "rps", 100, "target requests per second")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "how long to drive load (per scenario with -slo)")
	flag.IntVar(&o.concurrency, "concurrency", 32, "max in-flight requests; ticks beyond it are shed and reported")
	flag.IntVar(&o.batch, "batch", 4, "curves per scoring request")
	flag.StringVar(&o.out, "o", "BENCH_serve.json", "report path (- = stdout; BENCH_slo.json default with -slo)")
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
	if o.streams > 0 {
		if err := runStreams(o); err != nil {
			fmt.Fprintln(os.Stderr, "mfodload:", err)
			os.Exit(1)
		}
		return
	}
	if o.jobs {
		if err := runJobs(o); err != nil {
			fmt.Fprintln(os.Stderr, "mfodload:", err)
			os.Exit(1)
		}
		return
	}
	if o.slo {
		if err := runSLO(o); err != nil {
			fmt.Fprintln(os.Stderr, "mfodload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mfodload:", err)
		os.Exit(1)
	}
}

// report is the BENCH_serve.json document.
type report struct {
	Target      string  `json:"target"`
	Model       string  `json:"model"`
	Codec       string  `json:"codec"`
	TargetRPS   float64 `json:"targetRps"`
	DurationS   float64 `json:"durationS"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Shed        int     `json:"shed"`
	ErrorRate   float64 `json:"errorRate"`
	AchievedRPS float64 `json:"achievedRps"`
	LatencyMs   struct {
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latencyMs"`
	// BytesPerRequest reports the request-body size of the SAME curves
	// under each codec, so the wire savings are part of every bench run.
	BytesPerRequest map[string]int `json:"bytesPerRequest"`
}

func run(o loadOptions) error {
	if o.codec != "wire" && o.codec != "json" {
		return fmt.Errorf("bad -codec %q, want wire or json", o.codec)
	}
	if o.rps <= 0 || o.duration <= 0 || o.concurrency <= 0 || o.batch <= 0 {
		return errors.New("-rps, -duration, -concurrency and -batch must be positive")
	}

	var d fda.Dataset
	base := o.url
	switch {
	case o.selfFleet > 0:
		fleet, err := bootSelfFleet(o.selfFleet, o.model,
			serve.PoolOptions{QueueCap: 256}, 500*time.Millisecond)
		if err != nil {
			return err
		}
		base, d = fleet.base, fleet.d
	case o.url != "":
		if o.replay == "" {
			return errors.New("-url needs -replay (an `mfodgen -json` document)")
		}
		raw, err := os.ReadFile(o.replay)
		if err != nil {
			return err
		}
		d, err = decodeReplay(raw)
		if err != nil {
			return fmt.Errorf("replay %s: %w", o.replay, err)
		}
	default:
		return errors.New("either -url or -self N is required")
	}
	if len(d.Samples) == 0 {
		return errors.New("no curves to replay")
	}

	bodies, jsonBytes, wireBytes, err := buildBodies(d, o.batch, o.codec)
	if err != nil {
		return err
	}

	rep := drive(base, o, bodies, contentTypeFor(o.codec))
	rep.BytesPerRequest = map[string]int{"json": jsonBytes, "wire": wireBytes}

	var w io.Writer = os.Stdout
	if o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"mfodload: %d requests, %d errors, %d shed, %.1f rps achieved, p50=%.2fms p99=%.2fms p999=%.2fms\n",
		rep.Requests, rep.Errors, rep.Shed, rep.AchievedRPS,
		rep.LatencyMs.P50, rep.LatencyMs.P99, rep.LatencyMs.P999)
	if rep.Errors > 0 {
		return fmt.Errorf("%d/%d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// contentTypeFor maps a -codec value to its media type.
func contentTypeFor(codec string) string {
	if codec == "wire" {
		return wire.ContentType
	}
	return "application/json"
}

// decodeReplay reads an `mfodgen -json` document (the /v1/score body shape).
func decodeReplay(raw []byte) (fda.Dataset, error) {
	var doc struct {
		Samples []struct {
			Times  []float64   `json:"times"`
			Values [][]float64 `json:"values"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fda.Dataset{}, err
	}
	d := fda.Dataset{Samples: make([]fda.Sample, len(doc.Samples))}
	for i, s := range doc.Samples {
		d.Samples[i] = fda.Sample{Times: s.Times, Values: s.Values}
	}
	return d, nil
}

// buildBodies pre-encodes rotating windows of batch curves under the
// chosen codec, and returns the average bytes-per-request of the same
// windows under both codecs for the report.
func buildBodies(d fda.Dataset, batch int, codec string) (bodies [][]byte, jsonAvg, wireAvg int, err error) {
	n := len(d.Samples)
	if batch > n {
		batch = n
	}
	windows := n
	if windows > 64 {
		windows = 64 // bound pre-encoding work; rotation reuses them
	}
	var jsonTotal, wireTotal int
	for w := 0; w < windows; w++ {
		sub := fda.Dataset{Samples: make([]fda.Sample, 0, batch)}
		for i := 0; i < batch; i++ {
			sub.Samples = append(sub.Samples, d.Samples[(w+i)%n])
		}
		wb := wire.EncodeRequest(wire.Request{Dataset: sub})
		type jsonSample struct {
			Times  []float64   `json:"times"`
			Values [][]float64 `json:"values"`
		}
		js := struct {
			Samples []jsonSample `json:"samples"`
		}{}
		for _, s := range sub.Samples {
			js.Samples = append(js.Samples, jsonSample{Times: s.Times, Values: s.Values})
		}
		jb, jerr := json.Marshal(js)
		if jerr != nil {
			return nil, 0, 0, jerr
		}
		jsonTotal += len(jb)
		wireTotal += len(wb)
		if codec == "wire" {
			bodies = append(bodies, wb)
		} else {
			bodies = append(bodies, jb)
		}
	}
	return bodies, jsonTotal / windows, wireTotal / windows, nil
}

// drive paces requests at the target rate with a bounded in-flight
// window: a tick that finds every slot busy is shed (counted, not sent),
// so a saturated server degrades the achieved rate instead of building
// an unbounded goroutine backlog.
func drive(base string, o loadOptions, bodies [][]byte, contentType string) report {
	var (
		mu        sync.Mutex
		latencies []float64 // milliseconds
		errs      int
		shed      int
	)
	client := &http.Client{Timeout: 30 * time.Second}
	target := base + "/v1/score?model=" + url.QueryEscape(o.model)
	sem := make(chan struct{}, o.concurrency)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / o.rps)
	start := time.Now()
	deadline := start.Add(o.duration)
	for i, next := 0, start; next.Before(deadline); i, next = i+1, next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			body := bodies[i%len(bodies)]
			//mfodlint:allow poolmisuse load-generator request goroutine: bounded by the concurrency semaphore and joined via the WaitGroup before the report is written
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				ok := postOnce(client, target, contentType, body)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				latencies = append(latencies, ms)
				if !ok {
					errs++
				}
				mu.Unlock()
			}()
		default:
			shed++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := report{
		Target:    base,
		Model:     o.model,
		Codec:     o.codec,
		TargetRPS: o.rps,
		DurationS: o.duration.Seconds(),
		Requests:  len(latencies),
		Errors:    errs,
		Shed:      shed,
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(errs) / float64(rep.Requests)
		rep.AchievedRPS = float64(rep.Requests) / elapsed.Seconds()
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		rep.LatencyMs.P50 = percentile(latencies, 0.50)
		rep.LatencyMs.P99 = percentile(latencies, 0.99)
		rep.LatencyMs.P999 = percentile(latencies, 0.999)
		rep.LatencyMs.Mean = sum / float64(rep.Requests)
		rep.LatencyMs.Max = latencies[len(latencies)-1]
	}
	return rep
}

func postOnce(client *http.Client, url, contentType string, body []byte) bool {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// percentile reads the p-quantile from sorted (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
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

// wasted and evicted sum the pool counters across the fleet.
func (f *selfFleet) wasted() (n uint64) {
	for _, r := range f.replicas {
		n += r.pool.Wasted()
	}
	return n
}

func (f *selfFleet) evicted() (n uint64) {
	for _, r := range f.replicas {
		n += r.pool.Evicted()
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
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{},
		Detector:    iforest.New(iforest.Options{Trees: 30, Seed: 11}),
		Standardize: true,
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
