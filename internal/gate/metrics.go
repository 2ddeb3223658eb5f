package gate

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/metrics"
)

// Metrics is the gate's exposition page: one handle per family the
// gate observes, each called where its event happens. The fleet size,
// the health down-set, the brownout flag and the topology reload count
// are read from their owners at scrape time; New registers them.
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
}

// NewMetrics returns an empty gate metrics registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry("mfodgate_")
	return &Metrics{
		reg:              r,
		requests:         r.Counter("mfodgate_requests_total", "Gateway scoring requests by model and HTTP status code.", "model", "code"),
		latency:          r.Histogram("mfodgate_request_duration_seconds", "Client-observed gateway latency including hedges.", metrics.LatencyBuckets),
		replicas:         r.Counter("mfodgate_replica_requests_total", "Upstream legs by replica and outcome.", "replica", "outcome"),
		hedges:           r.Counter("mfodgate_hedges_total", "Races that launched the secondary leg."),
		legWins:          r.Counter("mfodgate_leg_wins_total", "Winning leg of finished races.", "leg"),
		upstreamBytes:    r.Counter("mfodgate_upstream_bytes_total", "Body bytes forwarded to replicas by codec.", "codec"),
		hedgesSuppressed: r.Counter("mfodgate_hedges_suppressed_total", "Speculative secondaries skipped under brownout."),
		deadlineRejected: r.Counter("mfodgate_deadline_rejected_total", "Requests refused for malformed deadline headers."),
		deadlineExpired:  r.Counter("mfodgate_deadline_expired_total", "Requests whose propagated budget was spent on arrival."),
	}
}

// ObserveRequest records one finished /v1 request at the gate. It is
// the record callback of the gate's route table, its one observation
// site.
func (m *Metrics) ObserveRequest(model string, code int, seconds float64) {
	m.requests.Inc(model, strconv.Itoa(code))
	m.latency.Observe(seconds)
}

// outcome labels one upstream leg in mfodgate_replica_requests_total:
// "ok" when the replica answered with any status, "cancelled" when the
// leg's caller gave up first (a hedge's losing leg, a client that went
// away), and "error" when the leg got no answer otherwise.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	return "error"
}
