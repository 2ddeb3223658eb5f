package gate_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/gate"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// faultSlowScore delays one designated replica's scoring handler when
// armed with a latency fault. faultinject's registry is process-global,
// so the point is hit only from the wrapper around that replica — the
// per-replica selectivity lives in the wiring, not the registry.
const faultSlowScore = "gatetest.replica.slow-score"

// modelNames is large enough that every replica of a 3-node ring owns
// at least one name as primary.
var modelNames = []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}

// fitModelFile fits a small pipeline and persists it, returning the
// file path and a bivariate dataset to score.
func fitModelFile(t *testing.T) (string, fda.Dataset) {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 30, Points: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: 7}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// bootReplica starts one in-process mfodserve replica holding every
// model name, optionally wrapping /v1/score in the slow-score fault
// point. Its log and every request that reaches it go to tr.
func bootReplica(t *testing.T, modelPath string, slow bool, tr *tier) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	for _, name := range modelNames {
		if err := reg.Load(name, modelPath); err != nil {
			t.Fatal(err)
		}
	}
	pool := serve.NewPool(serve.PoolOptions{Workers: 2, QueueCap: 128})
	t.Cleanup(pool.Close)
	streams, err := serve.NewStreamManager(reg, nil, serve.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(streams.Close)
	srv, err := serve.NewServer(serve.Config{
		Registry: reg,
		Pool:     pool,
		Metrics:  serve.NewMetrics(),
		Streams:  streams,
		Logger:   tr.logger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	h := inner
	if slow {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/score" {
				faultinject.Hit(faultSlowScore)
			}
			inner.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(tr.tap(h))
	t.Cleanup(ts.Close)
	return ts
}

func writeTopology(t *testing.T, path string, urls map[string]string) {
	t.Helper()
	topo := struct {
		VNodes   int            `json:"vnodes"`
		Replicas []gate.Replica `json:"replicas"`
	}{VNodes: 64}
	for _, name := range []string{"r1", "r2", "r3"} {
		if u, ok := urls[name]; ok {
			topo.Replicas = append(topo.Replicas, gate.Replica{Name: name, URL: u})
		}
	}
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func jsonScoreBody(t *testing.T, d fda.Dataset, idx []int) []byte {
	t.Helper()
	type jsonSample struct {
		Times  []float64   `json:"times"`
		Values [][]float64 `json:"values"`
	}
	var req struct {
		Samples []jsonSample `json:"samples"`
	}
	for _, i := range idx {
		req.Samples = append(req.Samples, jsonSample{Times: d.Samples[i].Times, Values: d.Samples[i].Values})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func wireScoreBody(t *testing.T, d fda.Dataset, idx []int) []byte {
	t.Helper()
	sub := fda.Dataset{}
	for _, i := range idx {
		sub.Samples = append(sub.Samples, d.Samples[i])
	}
	return wire.EncodeRequest(wire.Request{Dataset: sub})
}

// postScores POSTs a scoring body and returns the decoded scores; any
// non-200 is fatal.
func postScores(t *testing.T, base, model, contentType string, body []byte) []float64 {
	t.Helper()
	scores, code, raw := tryScores(t, base, model, contentType, body)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/score?model=%s = %d: %s", model, code, raw)
	}
	return scores
}

func tryScores(t *testing.T, base, model, contentType string, body []byte) ([]float64, int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/score?model="+model, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", model, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, string(raw)
	}
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode response: %v: %s", err, raw)
	}
	return out.Scores, resp.StatusCode, string(raw)
}

// gateHarness is the full assembled front tier over three replicas.
type gateHarness struct {
	g        *gate.Gate
	base     string
	topoPath string
	table    *gate.Table
	health   *gate.Health
	metrics  *gate.Metrics
	replicas map[string]*httptest.Server
	// tiers holds what each server ("gate", "r1", "r2", "r3") logged
	// and every request that reached it.
	tiers map[string]*tier
}

// bootGate boots three replicas and the gate over them; each option
// edits the gate's config before it starts.
func bootGate(t *testing.T, modelPath string, options ...func(*gate.Config)) *gateHarness {
	t.Helper()
	tiers := map[string]*tier{"gate": {}, "r1": {}, "r2": {}, "r3": {}}
	replicas := map[string]*httptest.Server{
		"r1": bootReplica(t, modelPath, false, tiers["r1"]),
		"r2": bootReplica(t, modelPath, true, tiers["r2"]), // r2 carries the latency fault point
		"r3": bootReplica(t, modelPath, false, tiers["r3"]),
	}
	topoPath := filepath.Join(t.TempDir(), "topology.json")
	urls := map[string]string{}
	for name, ts := range replicas {
		urls[name] = ts.URL
	}
	writeTopology(t, topoPath, urls)
	table, err := gate.LoadTable(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	table.Watch(10*time.Millisecond, stop, nil)
	health := &gate.Health{Interval: 25 * time.Millisecond, Threshold: 2}
	health.Run(table, stop)
	metrics := gate.NewMetrics()
	cfg := gate.Config{
		Table:      table,
		Health:     health,
		Metrics:    metrics,
		Logger:     tiers["gate"].logger(),
		HedgeDelay: 30 * time.Millisecond,
		Timeout:    10 * time.Second,
		EnableJobs: true,
		JobOptions: jobs.Options{ChunkSize: 16, Tokens: 4, MaxAttempts: 8, Backoff: 20 * time.Millisecond},
	}
	for _, opt := range options {
		opt(&cfg)
	}
	g, err := gate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(tiers["gate"].tap(g.Handler()))
	t.Cleanup(front.Close)
	return &gateHarness{
		g: g, base: front.URL, topoPath: topoPath,
		table: table, health: health, metrics: metrics, replicas: replicas, tiers: tiers,
	}
}

// modelOwnedBy returns a model name whose current primary is the named
// replica.
func (h *gateHarness) modelOwnedBy(t *testing.T, replica string) string {
	t.Helper()
	for _, m := range modelNames {
		if p, _ := h.g.Route(m); p == replica {
			return m
		}
	}
	t.Fatalf("no model of %v routes to %s as primary", modelNames, replica)
	return ""
}

// TestGateEndToEnd drives the whole tier under -race: bitwise score
// equality through both codecs, hedged failover past an injected
// latency fault and a replica killed mid-run with zero client-visible
// errors, and rerouting after a topology hot-reload.
func TestGateEndToEnd(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// --- Bitwise equality: direct replica vs gate, JSON and wire. ---
	jsonBody := jsonScoreBody(t, d, idx)
	wireBody := wireScoreBody(t, d, idx)
	direct := postScores(t, h.replicas["r1"].URL, "m0", "application/json", jsonBody)
	viaGateJSON := postScores(t, h.base, "m0", "application/json", jsonBody)
	viaGateWire := postScores(t, h.base, "m0", wire.ContentType, wireBody)
	if len(direct) != len(idx) {
		t.Fatalf("direct scoring returned %d scores, want %d", len(direct), len(idx))
	}
	for i := range direct {
		//mfodlint:allow floateq the whole point: gate transcoding must be bitwise transparent
		if direct[i] != viaGateJSON[i] || direct[i] != viaGateWire[i] {
			t.Fatalf("score %d diverged: direct=%x json=%x wire=%x",
				i, math.Float64bits(direct[i]), math.Float64bits(viaGateJSON[i]), math.Float64bits(viaGateWire[i]))
		}
	}

	// --- Latency fault: r2's scoring sleeps well past the hedge delay;
	// models owned by r2 must still answer through the secondary with no
	// client-visible error. ---
	slowModel := h.modelOwnedBy(t, "r2")
	faultinject.Arm(faultSlowScore, faultinject.Fault{Delay: 400 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 3; i++ {
		postScores(t, h.base, slowModel, wire.ContentType, wireBody)
	}
	if _, fired := faultinject.Hits(faultSlowScore); fired != 3 {
		t.Fatalf("latency fault fired %d times, want 3: the slow primary never saw the requests", fired)
	}
	faultinject.Reset()
	if elapsed := time.Since(start); elapsed > 3*400*time.Millisecond {
		t.Fatalf("hedged requests took %v — secondary never raced the slow primary", elapsed)
	}

	// --- Kill r3 mid-run: concurrent load across all models must see
	// zero client-visible errors while the hedge and breaker absorb the
	// dead replica, then health routes around it. ---
	killModel := h.modelOwnedBy(t, "r3")
	var wg sync.WaitGroup
	errc := make(chan string, 256)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				model := modelNames[(w+i)%len(modelNames)]
				if _, code, raw := tryScores(t, h.base, model, wire.ContentType, wireBody); code != http.StatusOK {
					errc <- fmt.Sprintf("worker %d req %d model %s: %d %s", w, i, model, code, raw)
				}
				if w == 0 && i == 5 {
					h.replicas["r3"].CloseClientConnections()
					h.replicas["r3"].Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Errorf("client-visible error during replica kill: %s", e)
	}

	// Health marks r3 down; routing stops offering it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p, s := h.g.Route(killModel); p != "r3" && s != "r3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never routed around the killed replica")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- Topology hot-reload: drop r3 from the file; the watcher must
	// swap the fleet and routes must match a fresh 2-replica ring. ---
	writeTopology(t, h.topoPath, map[string]string{
		"r1": h.replicas["r1"].URL,
		"r2": h.replicas["r2"].URL,
	})
	deadline = time.Now().Add(5 * time.Second)
	for len(h.table.Replicas()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never loaded the 2-replica topology")
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := gate.NewRing([]string{"r1", "r2"}, 64)
	for _, m := range modelNames {
		p, _ := h.g.Route(m)
		if wantP := want.Order(m, 1)[0]; p != wantP {
			t.Fatalf("model %s routes to %s after reload, want %s", m, p, wantP)
		}
		postScores(t, h.base, m, wire.ContentType, wireBody)
	}
}

// TestGateRejectsRaggedJSON: a JSON body whose value columns disagree
// with times in length must 400 at the gate instead of transcoding into
// a misaligned wire frame the replica would decode into well-shaped but
// wrong curves.
func TestGateRejectsRaggedJSON(t *testing.T) {
	modelPath, _ := fitModelFile(t)
	h := bootGate(t, modelPath)
	ragged := []byte(`{"samples":[{"times":[0,1,2],"values":[[1,2,3],[4,5]]}]}`)
	if _, code, raw := tryScores(t, h.base, "m0", "application/json", ragged); code != http.StatusBadRequest {
		t.Fatalf("ragged body scored with %d (%s), want 400", code, raw)
	}
}

// TestGateOperationalEndpoints covers the non-scoring surface.
func TestGateOperationalEndpoints(t *testing.T) {
	modelPath, _ := fitModelFile(t)
	h := bootGate(t, modelPath)

	get := func(path string) (int, string) {
		resp, err := http.Get(h.base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	code, body := get("/v1/topology?route=m0")
	if code != http.StatusOK || !strings.Contains(body, "r1") || !strings.Contains(body, `"route"`) {
		t.Fatalf("topology = %d: %s", code, body)
	}
	code, body = get("/v1/models")
	if code != http.StatusOK || !strings.Contains(body, "m0") {
		t.Fatalf("models = %d: %s", code, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "mfodgate_requests_total") {
		t.Fatalf("metrics = %d: %s", code, body)
	}

	// Reload broadcast reaches every replica.
	resp, err := http.Post(h.base+"/v1/reload?model=m0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload broadcast = %d: %s", resp.StatusCode, raw)
	}
	var rl struct {
		Replicas map[string]string `json:"replicas"`
	}
	if err := json.Unmarshal(raw, &rl); err != nil || len(rl.Replicas) != 3 {
		t.Fatalf("reload fan-out = %s (err %v), want 3 replicas", raw, err)
	}

	// Unknown model: replica's 404 relays through.
	if _, code, _ := tryScores(t, h.base, "nope", "application/json", []byte(`{"samples":[]}`)); code != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", code)
	}

	h.g.Drain()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
}
