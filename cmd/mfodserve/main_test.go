package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/metrics/metricstest"
)

// writeModel trains a quick pipeline and persists it, returning the
// model path and the dataset it was trained on.
func writeModel(t *testing.T) (string, fda.Dataset) {
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
	return path, d
}

func TestRunArgumentErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := run(serveOptions{addr: ":0", timeout: time.Second, quiet: true}); err == nil {
		t.Fatal("no models must fail")
	}
	if err := run(serveOptions{addr: ":0", models: []string{"noequals"}, timeout: time.Second, quiet: true}); err == nil {
		t.Fatal("malformed -model must fail")
	}
	if err := run(serveOptions{addr: ":0", models: []string{"m=/no/such/file.json"}, timeout: time.Second, quiet: true}); err == nil {
		t.Fatal("missing model file must fail")
	}
	// A malformed MFOD_FAULTS spec is a startup error, not a silent no-op.
	err := run(serveOptions{addr: ":0", models: []string{"m=x.json"}, timeout: time.Second, quiet: true, faults: "bogus spec"})
	if err == nil || !strings.Contains(err.Error(), "faultinject") {
		t.Fatalf("bad faults spec: err = %v", err)
	}
}

// TestServeEndToEnd boots the real binary wiring on a random port,
// scores curves over HTTP, scrapes metrics, and shuts down gracefully
// via SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	path, d := writeModel(t)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(serveOptions{
			addr:    "127.0.0.1:0",
			models:  []string{"ecg=" + path},
			workers: 2,
			queue:   16,
			timeout: 5 * time.Second,
			quiet:   true,
			ready:   ready,
			// The limiter and the stream manager install the page's
			// scrape-time families; the strict check below sees them.
			limitMax: 8,
			streams:  true,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	body, err := json.Marshal(map[string]any{
		"samples": []map[string]any{
			{"times": d.Samples[0].Times, "values": d.Samples[0].Values},
			{"times": d.Samples[1].Times, "values": d.Samples[1].Values},
		},
		"explain": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(base+"/v1/score?model=ecg", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("score = %d, body %s", sresp.StatusCode, raw)
	}
	var out struct {
		Scores       []float64 `json:"scores"`
		Explanations [][]any   `json:"explanations"`
		Model        string    `json:"model"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "ecg" || len(out.Scores) != 2 || len(out.Explanations) != 2 {
		t.Fatalf("response %s", raw)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mraw)
	if err := metricstest.Check(text); err != nil {
		t.Fatalf("metrics page fails the strict check: %v\n%s", err, text)
	}
	for _, want := range []string{
		`mfod_requests_total{model="ecg",code="200"} 1`,
		"mfod_request_duration_seconds_count 1",
		"mfod_queue_depth 0",
		"# TYPE mfod_concurrency_limit gauge",
		"mfod_streams_active 0",
		"mfod_stream_fits_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// Graceful shutdown on SIGTERM.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}
