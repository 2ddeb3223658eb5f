// Package serve turns a fitted detection pipeline into an online scoring
// service: a model registry with atomic hot-reload (registry.go), a
// bounded worker pool that scores one request per worker wake-up
// (pool.go), a stdlib-only HTTP API (server.go) and this file's
// observability layer, declared on the internal/metrics registry. The package depends
// only on the standard library, matching the repository's
// zero-dependency rule.
package serve

import (
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/metrics"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram: sub-millisecond cache hits through multi-second smoothing of
// large batches. The final +Inf bucket is implicit.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// sizeBuckets are the upper bounds (bytes) of the request-size
// histogram: single-curve binary frames through the 32 MiB body cap.
// Quartering per bucket keeps the series short while still separating
// the binary wire frames from their ~3–5× larger JSON twins.
var sizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20,
}

// Metrics holds the server's counters, gauges and histograms and
// renders them in the Prometheus text exposition format. All methods are
// safe for concurrent use and tolerate a nil receiver; WritePrometheus
// emits families and series in sorted order so scrapes are
// deterministic.
type Metrics struct {
	reg      *metrics.Registry
	requests metrics.Counter
	latency  metrics.Histogram
	// Request-size histogram by codec ("json" / "wire"), so the byte
	// savings of the binary wire format are observable in production,
	// not only in BENCH_serve.json.
	reqBytes  metrics.Histogram
	reloads   metrics.Counter
	panics    metrics.Counter
	shed      metrics.Counter
	evicted   metrics.Counter
	wasted    metrics.Counter
	cancelled metrics.Counter
	inflight  atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry("mfod_")
	m := &Metrics{
		reg:      r,
		requests: r.Counter("mfod_requests_total", "Scoring requests by model and HTTP status code.", "model", "code"),
		latency:  r.Histogram("mfod_request_duration_seconds", "Scoring request latency.", latencyBuckets),
		reqBytes: r.Histogram("mfod_request_bytes", "Scoring request body size by codec.", sizeBuckets, "codec"),
		reloads:  r.Counter("mfod_model_reloads_total", "Successful hot-reloads by model.", "model"),
		panics:   r.Counter("mfod_panics_total", "Scoring panics recovered by the worker pool."),
		shed:     r.Counter("mfod_shed_total", "Requests rejected by the adaptive concurrency limiter."),
		evicted:  r.Counter("mfod_evicted_total", "Queued jobs dropped because their deadline passed before scoring."),
		wasted:   r.Counter("mfod_wasted_total", "Jobs scored to completion after their deadline had passed."),
		cancelled: r.Counter("mfod_cancelled_total",
			"Jobs scored to completion after their caller cancelled them before the deadline."),
	}
	r.GaugeFunc("mfod_inflight_requests", "Requests currently being handled.", func() int { return int(m.inflight.Load()) })
	return m
}

// ObserveRequest records one finished /v1 request: its model label,
// HTTP status code and wall-clock duration in seconds. It is the
// record callback of the replica's route table, its one observation
// site.
func (m *Metrics) ObserveRequest(model string, code int, seconds float64) {
	if m != nil {
		m.requests.Inc(model, strconv.Itoa(code))
		m.latency.Observe(seconds)
	}
}

// ObserveRequestBytes records the body size of one scoring request
// under its codec label ("json" or "wire").
func (m *Metrics) ObserveRequestBytes(codec string, n int) {
	if m != nil && n >= 0 {
		m.reqBytes.Observe(float64(n), codec)
	}
}

// ObserveReload counts one successful hot-reload of the named model.
func (m *Metrics) ObserveReload(model string) {
	if m != nil {
		m.reloads.Inc(model)
	}
}

// IncInflight / DecInflight track requests currently inside the handler.
func (m *Metrics) IncInflight() {
	if m != nil {
		m.inflight.Add(1)
	}
}

// DecInflight is the matching decrement.
func (m *Metrics) DecInflight() {
	if m != nil {
		m.inflight.Add(-1)
	}
}

// IncPanics counts one scoring panic recovered by the worker pool.
func (m *Metrics) IncPanics() {
	if m != nil {
		m.panics.Inc()
	}
}

// IncShed counts one request rejected by the adaptive concurrency
// limiter before any decoding or scoring work.
func (m *Metrics) IncShed() {
	if m != nil {
		m.shed.Inc()
	}
}

// IncEvicted counts one queued job dropped because its deadline had
// already passed before scoring started.
func (m *Metrics) IncEvicted() {
	if m != nil {
		m.evicted.Inc()
	}
}

// IncWasted counts one job scored to completion after its deadline had
// passed.
func (m *Metrics) IncWasted() {
	if m != nil {
		m.wasted.Inc()
	}
}

// IncCancelled counts one job scored to completion after its caller
// cancelled it before the deadline.
func (m *Metrics) IncCancelled() {
	if m != nil {
		m.cancelled.Inc()
	}
}

// RegisterQueueDepth installs the gauge read at scrape time — the pool's
// current queue length. Call once during wiring, before serving.
func (m *Metrics) RegisterQueueDepth(fn func() int) {
	if m != nil {
		m.reg.GaugeFunc("mfod_queue_depth", "Jobs waiting in the scoring queue.", fn)
	}
}

// RegisterConcurrencyLimit installs the gauge read at scrape time — the
// adaptive limiter's current limit. Call once during wiring.
func (m *Metrics) RegisterConcurrencyLimit(fn func() int) {
	if m != nil {
		m.reg.GaugeFunc("mfod_concurrency_limit", "Current adaptive concurrency limit.", fn)
	}
}

// RegisterStreams installs the streaming-tier series read at scrape
// time: the live-stream gauge and the manager's append/eviction/refit
// counters. Call once during wiring, before serving.
func (m *Metrics) RegisterStreams(active func() int, appends, evicted, fits func() uint64) {
	if m != nil {
		m.reg.GaugeFunc("mfod_streams_active", "Live ingestion streams.", active)
		m.reg.CounterFunc("mfod_stream_appends_total", "Observations accepted across all streams.", appends)
		m.reg.CounterFunc("mfod_streams_evicted_total", "Idle streams reclaimed by the janitor.", evicted)
		m.reg.CounterFunc("mfod_stream_fits_total", "Incremental refits performed by stream scoring.", fits)
	}
}

// WritePrometheus renders every series in the Prometheus text format.
// The page is rendered in memory and written to w only after every lock
// is released, so a slow scraper cannot convoy the request path.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m != nil {
		m.reg.WritePrometheus(w)
	}
}
