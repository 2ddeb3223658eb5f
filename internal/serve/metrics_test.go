package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gate"
)

func render(m *Metrics) string {
	var sb strings.Builder
	m.reg.WritePrometheus(&sb)
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
	m.inflight.Add(1)
	m.inflight.Add(1)
	m.inflight.Add(-1)
	m.reloads.Inc("m")
	heldPool(t, m, 7)
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

// TestMetricsNilSafe: a replica whose server and pool were built with
// no Metrics, behind a gate built with none either, scores a request on
// both tiers and answers /metrics on both.
func TestMetricsNilSafe(t *testing.T) {
	path, _, ds := saveModel(t, t.TempDir(), "model.json", 5)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(PoolOptions{Workers: 1})
	t.Cleanup(pool.Close)
	srv, err := NewServer(Config{Registry: reg, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	topo := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(topo, []byte(fmt.Sprintf(`{"replicas":[{"name":"r1","url":%q}]}`, replica.URL)), 0o644); err != nil {
		t.Fatal(err)
	}
	table, err := gate.LoadTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gate.New(gate.Config{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	for _, base := range []string{replica.URL, front.URL} {
		if resp, body := postScore(t, base+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: score = %d, body %s", base, resp.StatusCode, body)
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/metrics = %d", base, resp.StatusCode)
		}
	}
}
