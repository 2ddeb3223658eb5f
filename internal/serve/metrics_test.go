package serve

import (
	"strings"
	"testing"
)

func render(m *Metrics) string {
	var sb strings.Builder
	m.WritePrometheus(&sb)
	return sb.String()
}

func TestMetricsCountersAndHistogram(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("a", 200, 0.004)
	m.ObserveRequest("a", 200, 0.2)
	m.ObserveRequest("a", 429, 0.0001)
	m.ObserveRequest("b", 200, 3)
	text := render(m)
	for _, want := range []string{
		`mfod_requests_total{model="a",code="200"} 2`,
		`mfod_requests_total{model="a",code="429"} 1`,
		`mfod_requests_total{model="b",code="200"} 1`,
		`mfod_request_duration_seconds_bucket{le="0.005"} 2`,
		`mfod_request_duration_seconds_bucket{le="0.25"} 3`,
		`mfod_request_duration_seconds_bucket{le="5"} 4`,
		`mfod_request_duration_seconds_bucket{le="+Inf"} 4`,
		"mfod_request_duration_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// Counter series render sorted by model then code, deterministically.
	ia := strings.Index(text, `model="a",code="200"`)
	ib := strings.Index(text, `model="a",code="429"`)
	ic := strings.Index(text, `model="b",code="200"`)
	if !(ia < ib && ib < ic) {
		t.Fatal("series not sorted")
	}
	if render(m) != text {
		t.Fatal("rendering must be stable")
	}
}

func TestMetricsGaugesAndBatch(t *testing.T) {
	m := NewMetrics()
	m.IncInflight()
	m.IncInflight()
	m.DecInflight()
	m.ObserveReload("m")
	m.RegisterQueueDepth(func() int { return 7 })
	text := render(m)
	for _, want := range []string{
		"mfod_inflight_requests 1",
		"mfod_queue_depth 7",
		`mfod_model_reloads_total{model="m"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.ObserveRequest("x", 200, 0.1)
	m.ObserveReload("x")
	m.IncInflight()
	m.DecInflight()
	m.RegisterQueueDepth(func() int { return 0 })
	var sb strings.Builder
	m.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil metrics must render nothing")
	}
}
