// Package serve turns a fitted detection pipeline into an online scoring
// service: a model registry with atomic hot-reload (registry.go), a
// bounded worker pool that scores one request per worker wake-up
// (pool.go) and a stdlib-only HTTP API (server.go). Its /metrics page
// is one internal/metrics registry (this file): the server observes
// each family where its event happens, and the counts the pool, the
// limiter and the stream manager keep are read from them at scrape
// time. The package depends only on the standard library, matching the
// repository's zero-dependency rule.
package serve

import (
	"strconv"
	"sync/atomic"

	"repro/internal/metrics"
)

// sizeBuckets are the upper bounds (bytes) of the request-size
// histogram: single-curve binary frames through the 32 MiB body cap.
// Quartering per bucket keeps the series short while still separating
// the binary wire frames from their ~3–5× larger JSON twins.
var sizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20,
}

// Metrics is the replica's exposition page: one handle per family the
// server observes, each called where its event happens. Families whose
// count another component keeps are registered, as scrape-time reads of
// that owner, by the constructor that builds it: NewPool (queue depth,
// panics, evicted, wasted and cancelled jobs), NewServer (the adaptive
// limit) and NewStreamManager (the stream series).
type Metrics struct {
	reg      *metrics.Registry
	requests metrics.Counter
	latency  metrics.Histogram
	// Request-size histogram by codec ("json" / "wire"), so the byte
	// savings of the binary wire format are observable in production,
	// not only in BENCH_serve.json.
	reqBytes metrics.Histogram
	reloads  metrics.Counter
	shed     metrics.Counter
	// inflight is written twice by every scoring request, and the
	// handles above are read by every request: the pad keeps them on
	// different cache lines. Sharing one cost the interactive benchmark
	// about 6% CPU per curve on a 2-vCPU host.
	_        [64]byte
	inflight atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry("mfod_")
	m := &Metrics{
		reg:      r,
		requests: r.Counter("mfod_requests_total", "Scoring requests by model and HTTP status code.", "model", "code"),
		latency:  r.Histogram("mfod_request_duration_seconds", "Scoring request latency.", metrics.LatencyBuckets),
		reqBytes: r.Histogram("mfod_request_bytes", "Scoring request body size by codec.", sizeBuckets, "codec"),
		reloads:  r.Counter("mfod_model_reloads_total", "Successful hot-reloads by model.", "model"),
		shed:     r.Counter("mfod_shed_total", "Requests rejected by the adaptive concurrency limiter."),
	}
	r.GaugeFunc("mfod_inflight_requests", "Requests currently being handled.", func() int { return int(m.inflight.Load()) })
	return m
}

// ObserveRequest records one finished /v1 request: its model label,
// HTTP status code and wall-clock duration in seconds. It is the
// record callback of the replica's route table, its one observation
// site.
func (m *Metrics) ObserveRequest(model string, code int, seconds float64) {
	m.requests.Inc(model, strconv.Itoa(code))
	m.latency.Observe(seconds)
}
