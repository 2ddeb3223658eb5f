// Command mfodserve serves fitted detection pipelines over HTTP: the
// online half of the repository. Train and persist a model with
// `mfoddetect -save model.json`, point mfodserve at it, and score new
// curves with a POST — see the "Serving" section of README.md for the
// end-to-end walkthrough.
//
// Usage:
//
//	mfodserve -model ecg=model.json [-model other=o.json ...]
//	          [-addr :8080] [-workers 8] [-queue 256]
//	          [-timeout 30s] [-max-body 33554432] [-quiet]
//	          [-limit-max 256] [-limit-min 1] [-limit-target 250ms]
//	          [-jobs=true] [-jobs-chunk 64] [-jobs-tokens 2] [-jobs-max 64]
//	          [-streams=true] [-stream-window 0] [-stream-idle 5m]
//	          [-stream-max 1024] [-stream-append-max 1024]
//
// Endpoints (every 4xx/5xx carries the v1 error envelope):
//
//	POST /v1/score?model={name}    score curves (JSON or wire body), optional explanations
//	POST /v1/reload?model={name}   atomically re-read the model file
//	POST /v1/jobs                  submit an async bulk-scoring job
//	GET  /v1/jobs/{id}[/results]   poll / stream a job (resumable NDJSON)
//	POST /v1/streams/{id}/append   append observations to a live stream
//	GET  /v1/streams/{id}/score    early-warning partial-curve score (?watch=1 streams NDJSON)
//	GET  /v1/streams[/{id}]        list live streams / one stream's status
//	DELETE /v1/streams/{id}        close a stream
//	GET  /v1/models                list loaded models
//	GET  /v1/models/{name}         one model's metadata
//	GET  /healthz, /readyz         liveness / readiness
//	GET  /metrics                  Prometheus text metrics
//
// On SIGINT/SIGTERM the server drains gracefully: readiness flips to
// 503, in-flight requests finish, then the worker pool shuts down.
//
// For chaos testing, the MFOD_FAULTS environment variable arms
// fault-injection points before the server starts, e.g.
// MFOD_FAULTS="serve.registry.reload=error" — see internal/faultinject
// and the "Resilience" section of README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// listen binds the TCP listener separately from Serve so run can report
// the resolved address (":0" in tests) before accepting traffic.
func listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// modelFlags collects repeated -model name=path pairs.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// serveOptions collects every flag plus the test-only ready channel, so
// tests can drive the binary without a process boundary.
type serveOptions struct {
	addr         string
	models       []string
	workers      int
	queue        int
	maxBody      int64
	timeout      time.Duration
	limitMax     int
	limitMin     int
	limitTarget  time.Duration
	jobsEnable   bool
	jobsChunk    int
	jobsTokens   int
	jobsMax      int
	streams      bool
	streamWin    int
	streamIdle   time.Duration
	streamMax    int
	streamAppend int
	quiet        bool
	faults       string        // MFOD_FAULTS spec, armed before serving
	ready        chan<- string // tests only: receives the bound address
}

func main() {
	var models modelFlags
	o := serveOptions{faults: os.Getenv("MFOD_FAULTS")}
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "scoring goroutines (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 256, "bounded scoring-queue capacity (full queue => 429)")
	flag.Int64Var(&o.maxBody, "max-body", 0, "byte cap on every request body, /v1/jobs and stream appends included; exceeded => JSON 413 (0 = 32 MiB)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline (exceeded => 504)")
	flag.IntVar(&o.limitMax, "limit-max", 0, "adaptive concurrency limit ceiling (AIMD); 0 disables the limiter")
	flag.IntVar(&o.limitMin, "limit-min", 1, "adaptive concurrency limit floor")
	flag.DurationVar(&o.limitTarget, "limit-target", 250*time.Millisecond, "latency above which the adaptive limit shrinks")
	flag.BoolVar(&o.jobsEnable, "jobs", true, "serve the async bulk-scoring jobs API (/v1/jobs)")
	flag.IntVar(&o.jobsChunk, "jobs-chunk", 0, "default samples per bulk-job chunk (0 = 64)")
	flag.IntVar(&o.jobsTokens, "jobs-tokens", 0, "concurrent chunks one bulk job may hold in the pool (0 = 2; bounds bulk pressure on interactive traffic)")
	flag.IntVar(&o.jobsMax, "jobs-max", 0, "job-table capacity; full => 429 (0 = 64)")
	flag.BoolVar(&o.streams, "streams", true, "serve the streaming-ingestion API (/v1/streams)")
	flag.IntVar(&o.streamWin, "stream-window", 0, "sliding window: keep only the newest N observations per stream (0 = keep all)")
	flag.DurationVar(&o.streamIdle, "stream-idle", 0, "evict streams idle this long (0 = 5m)")
	flag.IntVar(&o.streamMax, "stream-max", 0, "live-stream table capacity; full => 429 (0 = 1024)")
	flag.IntVar(&o.streamAppend, "stream-append-max", 0, "max points per append request (0 = 1024)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress request logging")
	flag.Var(&models, "model", "name=path of a saved pipeline; repeatable")
	flag.Parse()
	o.models = models
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mfodserve:", err)
		os.Exit(1)
	}
}

// run wires the registry, pool and server, then blocks until a signal or
// a listener error.
func run(o serveOptions) error {
	if len(o.models) == 0 {
		return errors.New("at least one -model name=path is required")
	}
	if o.faults != "" {
		if err := faultinject.ArmFromEnv(o.faults); err != nil {
			return err
		}
	}
	registry := serve.NewRegistry()
	for _, spec := range o.models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -model %q, want name=path", spec)
		}
		if err := registry.Load(name, path); err != nil {
			return err
		}
	}

	var logOut io.Writer = os.Stderr
	if o.quiet {
		logOut = io.Discard
	}
	logger := slog.New(slog.NewTextHandler(logOut, nil))
	if armed := faultinject.Armed(); len(armed) > 0 {
		logger.Warn("fault injection armed", "points", armed)
	}
	metrics := serve.NewMetrics()
	pool := serve.NewPool(serve.PoolOptions{
		Workers:  o.workers,
		QueueCap: o.queue,
		Metrics:  metrics,
	})
	var limiter *serve.AIMD
	if o.limitMax > 0 {
		limiter = serve.NewAIMD(serve.AIMDOptions{
			Min:    o.limitMin,
			Max:    o.limitMax,
			Target: o.limitTarget,
		})
	}
	var jobsMgr *jobs.Manager
	if o.jobsEnable {
		var err error
		jobsMgr, err = jobs.NewManager(jobs.Options{
			Runner:       &serve.JobRunner{Registry: registry, Pool: pool},
			ChunkSize:    o.jobsChunk,
			Tokens:       o.jobsTokens,
			MaxJobs:      o.jobsMax,
			ChunkTimeout: o.timeout,
		})
		if err != nil {
			return err
		}
	}
	// Bulk jobs stop before the pool: a closing pool would strand chunk
	// waits until their timeout, and job supervisors must not outlive
	// the workers that score for them.
	closeJobs := func() {
		if jobsMgr != nil {
			jobsMgr.Close()
		}
	}
	var streamsMgr *stream.Manager
	if o.streams {
		var err error
		streamsMgr, err = serve.NewStreamManager(registry, metrics, serve.StreamOptions{
			MaxStreams: o.streamMax,
			Window:     o.streamWin,
			MaxAppend:  o.streamAppend,
			IdleTTL:    o.streamIdle,
		})
		if err != nil {
			return err
		}
	}
	closeStreams := func() {
		if streamsMgr != nil {
			streamsMgr.Close()
		}
	}
	srv, err := serve.NewServer(serve.Config{
		Registry:     registry,
		Pool:         pool,
		Metrics:      metrics,
		Timeout:      o.timeout,
		MaxBodyBytes: o.maxBody,
		Limiter:      limiter,
		Logger:       logger,
		Jobs:         jobsMgr,
		Streams:      streamsMgr,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	ln, err := listen(o.addr)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	logger.Info("serving", "addr", ln.Addr().String(), "models", registry.Names())
	if o.ready != nil {
		o.ready <- ln.Addr().String()
	}
	//mfodlint:allow poolmisuse server lifecycle goroutine, not numeric fan-out: the accept loop must run concurrently with signal handling and is joined via errc on shutdown
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		closeStreams()
		closeJobs()
		pool.Close()
		return err
	case sig := <-sigc:
		logger.Info("shutdown", "signal", sig.String())
	}
	// Graceful drain: stop advertising readiness, let in-flight requests
	// finish (they wait on pool jobs), cancel bulk jobs, then stop the
	// workers.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	closeStreams()
	closeJobs()
	pool.Close()
	return nil
}
