package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/gate"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/metrics/metricstest"
	"repro/internal/serve"
)

// bootReplica starts one in-process mfodserve replica with one model.
func bootReplica(t *testing.T) (*httptest.Server, fda.Dataset) {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 30, Points: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: 1}),
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
	reg := serve.NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.PoolOptions{Workers: 2})
	t.Cleanup(pool.Close)
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, d
}

func TestRunArgumentErrors(t *testing.T) {
	if err := run(gateOptions{addr: ":0", quiet: true}); err == nil {
		t.Fatal("missing -topology must fail")
	}
	if err := run(gateOptions{addr: ":0", topology: "/no/such/topology.json", quiet: true}); err == nil {
		t.Fatal("unreadable topology must fail")
	}
	bad := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(bad, []byte(`{"replicas": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(gateOptions{addr: ":0", topology: bad, quiet: true}); err == nil {
		t.Fatal("empty topology must fail")
	}
	err := run(gateOptions{addr: ":0", topology: bad, quiet: true, faults: "bogus spec"})
	if err == nil || !strings.Contains(err.Error(), "faultinject") {
		t.Fatalf("bad faults spec: err = %v", err)
	}
}

// TestGateBinaryEndToEnd boots the real wiring on a random port in
// front of one replica, scores through it, inspects the operational
// endpoints, and shuts down gracefully via SIGTERM.
func TestGateBinaryEndToEnd(t *testing.T) {
	replica, d := bootReplica(t)
	topoPath := filepath.Join(t.TempDir(), "topology.json")
	topo, err := json.Marshal(gate.Topology{Replicas: []gate.Replica{{Name: "r1", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(topoPath, topo, 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(gateOptions{
			addr:           "127.0.0.1:0",
			topology:       topoPath,
			hedge:          25 * time.Millisecond,
			timeout:        5 * time.Second,
			watch:          50 * time.Millisecond,
			healthInterval: 50 * time.Millisecond,
			quiet:          true,
			ready:          ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("gate exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gate never became ready")
	}

	body, err := json.Marshal(map[string]any{
		"samples": []map[string]any{
			{"times": d.Samples[0].Times, "values": d.Samples[0].Values},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/score?model=ecg", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score via gate = %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Scores) != 1 {
		t.Fatalf("score response %s (err %v)", raw, err)
	}

	tresp, err := http.Get(base + "/v1/topology?route=ecg")
	if err != nil {
		t.Fatal(err)
	}
	traw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(traw), `"r1"`) {
		t.Fatalf("topology view missing replica: %s", traw)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := metricstest.Check(string(mraw)); err != nil {
		t.Fatalf("metrics page fails the strict check: %v\n%s", err, mraw)
	}
	for _, want := range []string{
		`mfodgate_requests_total{model="ecg",code="200"} 1`,
		`mfodgate_upstream_bytes_total{codec="wire"}`, // JSON inbound was transcoded
		"mfodgate_replicas 1",
		"mfodgate_brownout 0",
		"# TYPE mfodgate_replica_down_info gauge",
		"mfodgate_topology_reloads_total 0", // the initial load is not a hot reload
	} {
		if !strings.Contains(string(mraw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mraw)
		}
	}

	// A rewritten topology file is hot-reloaded by the watcher and
	// counted.
	topo, err = json.Marshal(gate.Topology{VNodes: 32, Replicas: []gate.Replica{{Name: "r1", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(topoPath, topo, 0o644); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(page), "mfodgate_topology_reloads_total 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("topology rewrite never counted as a hot reload:\n%s", page)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gate did not shut down after SIGTERM")
	}
}
