package gate

import (
	"io"
	"strconv"

	"repro/internal/metrics"
)

// gateLatencyBuckets are the upper bounds (seconds) of the gate's
// end-to-end latency histogram — the client-observed number, including
// the replica round trip and any hedge.
var gateLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics holds the gate's counters and histograms and renders them in
// the Prometheus text format. All methods are safe for concurrent use
// and nil-receiver tolerant, mirroring internal/serve.
type Metrics struct {
	reg      *metrics.Registry
	requests metrics.Counter
	latency  metrics.Histogram
	replicas metrics.Counter
	// Hedge accounting: how many races launched a secondary at all, and
	// which leg delivered the winning answer.
	hedges  metrics.Counter
	legWins metrics.Counter
	// upstreamBytes counts bytes forwarded to replicas per codec, so the
	// gate's own JSON→wire transcoding savings are observable.
	upstreamBytes metrics.Counter
	// Deadline & overload accounting.
	hedgesSuppressed metrics.Counter // secondary legs skipped under brownout
	deadlineRejected metrics.Counter // malformed X-Mfod-Deadline-Ms headers (400)
	deadlineExpired  metrics.Counter // budgets already spent on arrival (504)
	reloads          metrics.Counter
}

// NewMetrics returns an empty gate metrics registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry("mfodgate_")
	return &Metrics{
		reg:              r,
		requests:         r.Counter("mfodgate_requests_total", "Gateway scoring requests by model and HTTP status code.", "model", "code"),
		latency:          r.Histogram("mfodgate_request_duration_seconds", "Client-observed gateway latency including hedges.", gateLatencyBuckets),
		replicas:         r.Counter("mfodgate_replica_requests_total", "Upstream legs by replica and outcome.", "replica", "outcome"),
		hedges:           r.Counter("mfodgate_hedges_total", "Races that launched the secondary leg."),
		legWins:          r.Counter("mfodgate_leg_wins_total", "Winning leg of finished races.", "leg"),
		upstreamBytes:    r.Counter("mfodgate_upstream_bytes_total", "Body bytes forwarded to replicas by codec.", "codec"),
		hedgesSuppressed: r.Counter("mfodgate_hedges_suppressed_total", "Speculative secondaries skipped under brownout."),
		deadlineRejected: r.Counter("mfodgate_deadline_rejected_total", "Requests refused for malformed deadline headers."),
		deadlineExpired:  r.Counter("mfodgate_deadline_expired_total", "Requests whose propagated budget was spent on arrival."),
		reloads:          r.Counter("mfodgate_topology_reloads_total", "Successful topology hot-reloads."),
	}
}

// ObserveRequest records one finished /v1 request at the gate. It is
// the record callback of the gate's route table, its one observation
// site.
func (m *Metrics) ObserveRequest(model string, code int, seconds float64) {
	if m != nil {
		m.requests.Inc(model, strconv.Itoa(code))
		m.latency.Observe(seconds)
	}
}

// ObserveReplica records one leg's outcome against a replica.
func (m *Metrics) ObserveReplica(replica string, ok bool) {
	if m == nil {
		return
	}
	outcome := "ok"
	if !ok {
		outcome = "error"
	}
	m.replicas.Inc(replica, outcome)
}

// ObserveHedge records one finished race: whether a secondary leg was
// launched and which leg won.
func (m *Metrics) ObserveHedge(secondaryLaunched bool, winner string) {
	if m == nil {
		return
	}
	if secondaryLaunched {
		m.hedges.Inc()
	}
	m.legWins.Inc(winner)
}

// ObserveUpstreamBytes counts body bytes forwarded upstream per codec.
func (m *Metrics) ObserveUpstreamBytes(codec string, n int) {
	if m != nil && n >= 0 {
		m.upstreamBytes.Add(uint64(n), codec)
	}
}

// ObserveHedgeSuppressed counts one speculative secondary skipped
// because the gate is in brownout mode.
func (m *Metrics) ObserveHedgeSuppressed() {
	if m != nil {
		m.hedgesSuppressed.Inc()
	}
}

// ObserveDeadlineRejected counts one request refused for a malformed
// deadline header.
func (m *Metrics) ObserveDeadlineRejected() {
	if m != nil {
		m.deadlineRejected.Inc()
	}
}

// ObserveDeadlineExpired counts one request whose propagated budget was
// already spent on arrival.
func (m *Metrics) ObserveDeadlineExpired() {
	if m != nil {
		m.deadlineExpired.Inc()
	}
}

// RegisterBrownout installs the scrape-time brownout gauge. Call once
// during wiring.
func (m *Metrics) RegisterBrownout(fn func() bool) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("mfodgate_brownout", "Whether the gate is in brownout mode (hedges suppressed).", func() int {
		if fn() {
			return 1
		}
		return 0
	})
}

// ObserveTopologyReload counts one successful topology hot-reload.
func (m *Metrics) ObserveTopologyReload() {
	if m != nil {
		m.reloads.Inc()
	}
}

// RegisterFleetGauges installs the scrape-time gauges: the current
// fleet size and the health down-set. Call once during wiring.
func (m *Metrics) RegisterFleetGauges(fleetSize func() int, healthDown func() map[string]bool) {
	if m != nil {
		m.reg.GaugeFunc("mfodgate_replicas", "Replicas in the current topology.", fleetSize)
		m.reg.GaugeFunc("mfodgate_replica_down", "Replicas currently failing health checks.", func() int {
			return len(healthDown())
		})
		m.reg.InfoFunc("mfodgate_replica_down_info", "One series per replica currently failing health checks.", "replica", func() []string {
			var names []string
			for n := range healthDown() {
				names = append(names, n)
			}
			return names
		})
	}
}

// WritePrometheus renders every series in sorted order. The page is
// rendered in memory and reaches w — usually a scraper's ResponseWriter
// — only after every lock is released, so a slow scraper cannot convoy
// the request path.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m != nil {
		m.reg.WritePrometheus(w)
	}
}
