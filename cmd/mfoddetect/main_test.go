package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geometry"
	"repro/internal/serve"
)

func writeTestCSV(t *testing.T, n int, seed int64) string {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: n, Points: 30, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "curves.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTransductive(t *testing.T) {
	in := writeTestCSV(t, 30, 1)
	if err := run(options{in: in, mapping: "log-curvature", detector: "ifor", top: 5, explain: 3, seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrainTestSplitFiles(t *testing.T) {
	train := writeTestCSV(t, 30, 2)
	test := writeTestCSV(t, 20, 3)
	if err := run(options{in: test, train: train, mapping: "curvature", detector: "knn", seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEveryDetector(t *testing.T) {
	in := writeTestCSV(t, 24, 4)
	for _, det := range []string{"ifor", "ocsvm", "lof", "knn"} {
		if err := run(options{in: in, mapping: "log-curvature", detector: det, top: 3, seed: 1}); err != nil {
			t.Fatalf("%s: %v", det, err)
		}
	}
}

// TestRunSaveAndReuseModel: the iForest and tuned-OCSVM models save,
// and the saved model scores the curves it was fitted on as the fit
// did, and fresh curves with no refit. LOF and kNN models do not save:
// the save fails and leaves the file at that path as it was.
func TestRunSaveAndReuseModel(t *testing.T) {
	in := writeTestCSV(t, 24, 6)
	fresh := writeTestCSV(t, 12, 7)
	for _, det := range []string{"ifor", "ocsvm"} {
		modelPath := filepath.Join(t.TempDir(), "model.json")
		fitted := captureStdout(t, func() error {
			return run(options{in: in, mapping: "log-curvature", detector: det, saveTo: modelPath, seed: 1})
		})
		loaded := captureStdout(t, func() error { return run(options{in: in, model: modelPath, seed: 1}) })
		if want := strings.Replace(fitted, "(pipeline saved to "+modelPath+")\n", "", 1); loaded != want {
			t.Fatalf("%s: the saved model scores otherwise:\nfitted:\n%s\nloaded:\n%s", det, want, loaded)
		}
		if err := run(options{in: fresh, model: modelPath, top: 3, seed: 1}); err != nil {
			t.Fatalf("%s: %v", det, err)
		}
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := run(options{in: in, mapping: "log-curvature", detector: "ifor", saveTo: modelPath, top: 3, seed: 1}); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []string{"lof", "knn"} {
		err := run(options{in: in, mapping: "log-curvature", detector: det, saveTo: modelPath, top: 3, seed: 1})
		if err == nil || !strings.Contains(err.Error(), "not serializable") {
			t.Fatalf("%s: err = %v, want a refused save", det, err)
		}
		if after, err := os.ReadFile(modelPath); err != nil || !bytes.Equal(after, saved) {
			t.Fatalf("%s: the refused save changed the file at its path: %d bytes, was %d (%v)", det, len(after), len(saved), err)
		}
	}
	// A missing model file fails cleanly.
	if err := run(options{in: fresh, model: filepath.Join(t.TempDir(), "no.json"), seed: 1}); err == nil {
		t.Fatal("missing model must fail")
	}
}

func TestBuildDetectorUnknown(t *testing.T) {
	if _, err := buildDetector("bogus", 1); err == nil || !strings.Contains(err.Error(), "unknown detector") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(options{mapping: "curvature", detector: "ifor", seed: 1}); err == nil {
		t.Fatal("missing -in must fail")
	}
	in := writeTestCSV(t, 10, 5)
	if err := run(options{in: in, mapping: "bogus-mapping", detector: "ifor", seed: 1}); err == nil || !strings.Contains(err.Error(), "unknown mapping") {
		t.Fatalf("err = %v", err)
	}
	if err := run(options{in: filepath.Join(t.TempDir(), "missing.csv"), mapping: "curvature", detector: "ifor", seed: 1}); err == nil {
		t.Fatal("missing file must fail")
	}
}

// remoteServer boots a real serve.Server around a model fitted on the
// curves in csvPath, fronted by a shim that fails the first failN
// requests with failCode — the flaky upstream the resilience client is
// built for. It returns the server URL and the per-request counter.
func remoteServer(t *testing.T, csvPath string, failN int64, failCode int) (string, *atomic.Int64) {
	t.Helper()
	// Fit on the same curves the remote run will score and persist the
	// pipeline the way an operator would (mfoddetect -save).
	modelPath := filepath.Join(t.TempDir(), "model.json")
	ds, err := readCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	det, err := buildDetector("ifor", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{Mapping: geometry.LogCurvature{}, DetectorSpec: det, Standardize: true}
	if err := p.Fit(ds); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(modelPath)
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
	if err := reg.Load("ecg", modelPath); err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.PoolOptions{Workers: 2})
	t.Cleanup(pool.Close)
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failN {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "injected outage", failCode)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &calls
}

func TestRunRemoteEndToEnd(t *testing.T) {
	in := writeTestCSV(t, 20, 8)
	url, calls := remoteServer(t, in, 2, http.StatusServiceUnavailable)
	err := run(options{
		in:             in,
		remote:         url,
		remoteModel:    "ecg",
		remoteAttempts: 5,
		remoteBackoff:  time.Millisecond,
		remoteBreaker:  10,
		remoteTimeout:  10 * time.Second,
		top:            5,
		explain:        2,
		seed:           1,
	})
	if err != nil {
		t.Fatalf("remote run against flaky server: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + 1 success)", got)
	}
}

func TestRunRemoteBreakerOpens(t *testing.T) {
	in := writeTestCSV(t, 10, 9)
	url, calls := remoteServer(t, in, 1<<30, http.StatusInternalServerError)
	err := run(options{
		in:             in,
		remote:         url,
		remoteModel:    "ecg",
		remoteAttempts: 6,
		remoteBackoff:  time.Millisecond,
		remoteBreaker:  2,
		remoteTimeout:  10 * time.Second,
		seed:           1,
	})
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("err = %v, want open circuit", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (breaker cut the rest)", got)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if runErr != nil {
		t.Fatalf("run under capture: %v", runErr)
	}
	return string(out)
}

// TestRunRemoteBothEncodings scores the same curves over JSON and over
// the binary wire codec and requires the printed reports — scores, AUC,
// ranking — to match byte for byte: the codec must be invisible.
func TestRunRemoteBothEncodings(t *testing.T) {
	in := writeTestCSV(t, 20, 8)
	url, calls := remoteServer(t, in, 0, 0)
	base := options{
		in:             in,
		remote:         url,
		remoteModel:    "ecg",
		remoteAttempts: 2,
		remoteBackoff:  time.Millisecond,
		remoteBreaker:  5,
		remoteTimeout:  10 * time.Second,
		top:            5,
		seed:           1,
	}
	asJSON := base
	viaJSON := captureStdout(t, func() error { return run(asJSON) })
	asWire := base
	asWire.remoteWire = true
	viaWire := captureStdout(t, func() error { return run(asWire) })
	if viaJSON != viaWire {
		t.Fatalf("codec changed the output:\njson:\n%s\nwire:\n%s", viaJSON, viaWire)
	}
	if !strings.Contains(viaWire, "AUC") {
		t.Fatalf("no AUC footer in remote output:\n%s", viaWire)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}

func TestRunRemoteArgErrors(t *testing.T) {
	if err := run(options{remote: "http://localhost:1", seed: 1}); err == nil {
		t.Fatal("remote without -in must fail")
	}
	in := writeTestCSV(t, 10, 10)
	if err := run(options{in: in, remote: "http://localhost:1", seed: 1}); err == nil || !strings.Contains(err.Error(), "-remote-model") {
		t.Fatalf("err = %v, want missing -remote-model", err)
	}
}
