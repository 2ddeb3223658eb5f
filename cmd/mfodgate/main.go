// Command mfodgate is the scale-out front tier for a fleet of mfodserve
// replicas: it consistent-hash-shards model names across the replicas of
// a JSON topology file, hot-reloads that file on change, health-checks
// every replica actively, and answers each scoring request through a
// hedged race between a model's primary replica and its ring successor.
// Upstream traffic rides the binary wire codec (internal/wire) by
// default, whatever the client spoke — see the "Scaling out" section of
// README.md for the walkthrough.
//
// Usage:
//
//	mfodgate -topology topology.json [-addr :9090]
//	         [-hedge 50ms] [-timeout 30s] [-watch 1s]
//	         [-health-interval 2s] [-health-threshold 2] [-health-jitter 0.1]
//	         [-attempts 2] [-breaker-threshold 5] [-breaker-cooldown 1s]
//	         [-brownout-window 5s] [-brownout-enter 0.3] [-brownout-exit 0.1]
//	         [-slow-after 0] [-max-body 33554432] [-quiet]
//	         [-jobs=true] [-jobs-chunk 256] [-jobs-tokens 4]
//
// Endpoints (a drop-in superset of one replica's surface; every
// 4xx/5xx carries the v1 error envelope):
//
//	POST /v1/score?model={name}    hedged, sharded scoring
//	POST /v1/reload?model={name}   broadcast reload to every replica
//	POST /v1/jobs                  async bulk scoring, chunks scatter/gathered across the fleet
//	GET  /v1/jobs/{id}[/results]   poll / stream a job (resumable NDJSON)
//	/v1/streams/{id}[/append|/score]  streaming ingestion, sharded by stream id — never
//	                               hedged; transport failures fail over along the ring
//	GET  /v1/streams               live stream ids gathered across the whole fleet
//	GET  /v1/models                proxied model listing
//	GET  /v1/models/{name}         one model's metadata, from the model's shard
//	GET  /v1/topology              fleet, health and routing view
//	GET  /healthz, /readyz         liveness / readiness
//	GET  /metrics                  Prometheus text metrics
//
// On SIGINT/SIGTERM the gate drains gracefully: readiness flips to 503,
// in-flight hedges finish, then the process exits.
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
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gate"
	"repro/internal/jobs"
)

// gateOptions collects every flag plus the test-only ready channel, so
// tests can drive the binary without a process boundary.
type gateOptions struct {
	addr             string
	topology         string
	hedge            time.Duration
	timeout          time.Duration
	watch            time.Duration
	healthInterval   time.Duration
	healthThreshold  int
	healthJitter     float64
	attempts         int
	breakerThreshold int
	breakerCooldown  time.Duration
	brownoutWindow   time.Duration
	brownoutEnter    float64
	brownoutExit     float64
	slowAfter        time.Duration
	maxBody          int64
	jobsEnable       bool
	jobsChunk        int
	jobsTokens       int
	quiet            bool
	faults           string        // MFOD_FAULTS spec, armed before serving
	ready            chan<- string // tests only: receives the bound address
}

func main() {
	o := gateOptions{faults: os.Getenv("MFOD_FAULTS")}
	flag.StringVar(&o.addr, "addr", ":9090", "listen address")
	flag.StringVar(&o.topology, "topology", "", "replica topology file (JSON), hot-reloaded on change")
	flag.DurationVar(&o.hedge, "hedge", 50*time.Millisecond, "silence before the secondary replica is raced")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline (exceeded => 504)")
	flag.DurationVar(&o.watch, "watch", time.Second, "topology file poll interval")
	flag.DurationVar(&o.healthInterval, "health-interval", 2*time.Second, "replica health-probe interval")
	flag.IntVar(&o.healthThreshold, "health-threshold", 2, "consecutive probe failures that mark a replica down")
	flag.Float64Var(&o.healthJitter, "health-jitter", 0.1, "probe-interval jitter fraction (desynchronizes co-started gates; negative disables)")
	flag.IntVar(&o.attempts, "attempts", 2, "per-leg upstream attempts (retry stays shallow; the hedge owns availability)")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 5, "consecutive leg failures that open a replica's circuit")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", time.Second, "open-circuit probe interval")
	flag.DurationVar(&o.brownoutWindow, "brownout-window", 5*time.Second, "sliding window of the overload detector")
	flag.Float64Var(&o.brownoutEnter, "brownout-enter", 0.3, "bad-outcome fraction that enters brownout (hedges suppressed)")
	flag.Float64Var(&o.brownoutExit, "brownout-exit", 0.1, "bad-outcome fraction below which brownout exits")
	flag.DurationVar(&o.slowAfter, "slow-after", 0, "latency counted as a bad outcome by the brownout window (0 = timeout/2)")
	flag.Int64Var(&o.maxBody, "max-body", 0, "byte cap on every request body, /v1/jobs and stream appends included; exceeded => JSON 413 (0 = 32 MiB)")
	flag.BoolVar(&o.jobsEnable, "jobs", true, "serve the async bulk-scoring jobs API, scatter/gathered across the fleet")
	flag.IntVar(&o.jobsChunk, "jobs-chunk", 0, "default samples per bulk-job chunk (0 = 256)")
	flag.IntVar(&o.jobsTokens, "jobs-tokens", 0, "concurrent chunks one bulk job may have in flight (0 = 4)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress request logging")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mfodgate:", err)
		os.Exit(1)
	}
}

// run wires the table, watcher, health prober and gate, then blocks
// until a signal or a listener error.
func run(o gateOptions) error {
	if o.topology == "" {
		return errors.New("-topology file is required")
	}
	if o.faults != "" {
		if err := faultinject.ArmFromEnv(o.faults); err != nil {
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

	table, err := gate.LoadTable(o.topology)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	table.Watch(o.watch, stop, func(err error) {
		if err != nil {
			logger.Error("topology reload failed, previous fleet keeps serving", "err", err)
		}
	})
	health := &gate.Health{
		Interval:  o.healthInterval,
		Threshold: o.healthThreshold,
		Jitter:    o.healthJitter,
		OnChange: func(replica string, up bool) {
			logger.Info("replica health changed", "replica", replica, "up", up)
		},
	}
	health.Run(table, stop)

	slowAfter := o.slowAfter
	if slowAfter <= 0 {
		slowAfter = o.timeout / 2
	}
	brownout := gate.NewBrownout(gate.BrownoutOptions{
		Window:       o.brownoutWindow,
		EnterBadRate: o.brownoutEnter,
		ExitBadRate:  o.brownoutExit,
		SlowAfter:    slowAfter,
	})

	g, err := gate.New(gate.Config{
		Table:            table,
		Health:           health,
		Metrics:          gate.NewMetrics(),
		Logger:           logger,
		HedgeDelay:       o.hedge,
		Timeout:          o.timeout,
		MaxBodyBytes:     o.maxBody,
		Attempts:         o.attempts,
		BreakerThreshold: o.breakerThreshold,
		BreakerCooldown:  o.breakerCooldown,
		Brownout:         brownout,
		EnableJobs:       o.jobsEnable,
		JobOptions:       jobs.Options{ChunkSize: o.jobsChunk, Tokens: o.jobsTokens},
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: g.Handler()}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	logger.Info("gating", "addr", ln.Addr().String(), "topology", o.topology, "replicas", table.Replicas())
	if o.ready != nil {
		o.ready <- ln.Addr().String()
	}
	//mfodlint:allow poolmisuse server lifecycle goroutine, not numeric fan-out: the accept loop must run concurrently with signal handling and is joined via errc on shutdown
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutdown", "signal", sig.String())
	}
	g.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if mgr := g.Jobs(); mgr != nil {
		mgr.Close()
	}
	return nil
}
