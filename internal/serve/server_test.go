package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/httpapi"
)

// testStack builds a registry with one model named "ecg", a pool and an
// httptest server, returning them plus the model's path and dataset.
func testStack(t *testing.T, popt PoolOptions, seed int64) (*httptest.Server, *Server, *Registry, *Pool, string, fda.Dataset) {
	t.Helper()
	dir := t.TempDir()
	path, _, ds := saveModel(t, dir, "model.json", seed)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	popt.Metrics = NewMetrics()
	pool := NewPool(popt)
	t.Cleanup(pool.Close)
	srv, err := NewServer(Config{
		Registry: reg,
		Pool:     pool,
		Metrics:  popt.Metrics,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, reg, pool, path, ds
}

// scoreBody marshals samples into a /v1/score request body.
func scoreBody(t *testing.T, ds fda.Dataset, idx []int, explain int) []byte {
	t.Helper()
	type sample struct {
		Times  []float64   `json:"times"`
		Values [][]float64 `json:"values"`
	}
	req := struct {
		Samples []sample `json:"samples"`
		Explain int      `json:"explain,omitempty"`
	}{Explain: explain}
	for _, i := range idx {
		req.Samples = append(req.Samples, sample{Times: ds.Samples[i].Times, Values: ds.Samples[i].Values})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postScore(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerScoreHappyPath(t *testing.T) {
	ts, _, reg, _, _, ds := testStack(t, PoolOptions{Workers: 2}, 1)
	m, _ := reg.Get("ecg")
	idx := []int{0, 1, 2, 3}
	want, err := m.Pipeline().Score(ds.Subset(idx))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, idx, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out scoreResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "ecg" || len(out.Scores) != len(idx) {
		t.Fatalf("response %+v", out)
	}
	for i := range want {
		if math.Abs(out.Scores[i]-want[i]) > 1e-9 {
			t.Fatalf("score[%d] = %g over HTTP, want %g", i, out.Scores[i], want[i])
		}
	}
	if out.ElapsedMs <= 0 {
		t.Fatal("elapsedMs missing")
	}
}

func TestServerScoreWithExplanations(t *testing.T) {
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 2)
	resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0, 1}, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out scoreResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Explanations) != 2 {
		t.Fatalf("%d explanation lists, want 2", len(out.Explanations))
	}
	for i, exps := range out.Explanations {
		if len(exps) != 3 {
			t.Fatalf("sample %d: %d explanations, want 3", i, len(exps))
		}
	}
}

func TestServerClientErrors(t *testing.T) {
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 3)
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"unknown model", ts.URL + "/v1/score?model=nope", scoreBody(t, ds, []int{0}, 0), http.StatusNotFound},
		{"bad json", ts.URL + "/v1/score?model=ecg", []byte("{"), http.StatusBadRequest},
		{"no samples", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[]}`), http.StatusBadRequest},
		{"invalid curve", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[{"times":[1,0],"values":[[1,2],[3,4]]}]}`), http.StatusBadRequest},
		{"NaN sample", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[{"times":[0,1],"values":[[1,NaN],[3,4]]}]}`), http.StatusBadRequest},
		{"Inf time", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[{"times":[0,1e999],"values":[[1,2],[3,4]]}]}`), http.StatusBadRequest},
		{"ragged grid", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[{"times":[0,0.5,1],"values":[[1,2],[3,4,5]]}]}`), http.StatusBadRequest},
		{"empty grid", ts.URL + "/v1/score?model=ecg", []byte(`{"samples":[{"times":[],"values":[[],[]]}]}`), http.StatusBadRequest},
		{"bad timeout", ts.URL + "/v1/score?model=ecg&timeout=banana", scoreBody(t, ds, []int{0}, 0), http.StatusBadRequest},
		{"retired alias path", ts.URL + "/v1/models/ecg:score", scoreBody(t, ds, []int{0}, 0), http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, body := postScore(t, c.url, c.body)
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status = %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
		}
	}
	// Wrong method on the scoring route.
	resp, err := http.Get(ts.URL + "/v1/score?model=ecg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/score status = %d, want 405", resp.StatusCode)
	}
	// A univariate curve against the bivariate model: the job fails in
	// the mapping layer and maps to 422.
	uni := fmt.Sprintf(`{"samples":[{"times":[0,0.5,1,1.5,2],"values":[[1,2,1,2,1]]}]}`)
	resp2, body := postScore(t, ts.URL+"/v1/score?model=ecg", []byte(uni))
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("univariate status = %d, want 422 (body %s)", resp2.StatusCode, body)
	}
}

func TestServerQueueFull429(t *testing.T) {
	ts, _, reg, pool, _, ds := testStack(t, PoolOptions{Workers: 1, QueueCap: 1}, 4)
	started := make(chan *Job, 16)
	gate := make(chan struct{})
	pool.testHook = func(j *Job) {
		started <- j
		<-gate
	}
	defer close(gate)
	_ = reg

	body := scoreBody(t, ds, []int{0}, 0)
	type result struct {
		code int
	}
	results := make(chan result, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/score?model=ecg", "application/json", bytes.NewReader(body))
		if err != nil {
			results <- result{0}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		results <- result{resp.StatusCode}
	}
	go post()
	<-started // first request is being scored
	go post()
	deadline := time.Now().Add(2 * time.Second)
	for pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue is full: the next request must be rejected immediately.
	resp, bodyOut := postScore(t, ts.URL+"/v1/score?model=ecg", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, bodyOut)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	gate <- struct{}{}
	<-started
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("in-flight request %d finished with %d", i, r.code)
		}
	}
}

func TestServerDeadline504(t *testing.T) {
	ts, _, _, pool, _, ds := testStack(t, PoolOptions{Workers: 1}, 5)
	started := make(chan *Job, 16)
	gate := make(chan struct{})
	pool.testHook = func(j *Job) {
		started <- j
		<-gate
	}
	body := scoreBody(t, ds, []int{0}, 0)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/score?model=ecg&timeout=60ms", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- resp.StatusCode
	}()
	<-started // worker holds the job past the request deadline
	code := <-done
	close(gate)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
}

func TestServerHotReload(t *testing.T) {
	ts, _, reg, _, path, ds := testStack(t, PoolOptions{Workers: 1}, 6)
	m, _ := reg.Get("ecg")
	before := m.Pipeline()

	// Swap the file on disk for a differently-seeded model, then reload.
	path2, _, _ := saveModel(t, t.TempDir(), "new.json", 60)
	blob, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postScore(t, ts.URL+"/v1/reload?model=ecg", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d, body %s", resp.StatusCode, body)
	}
	if m.Pipeline() == before {
		t.Fatal("HTTP reload must swap the served pipeline")
	}
	// The swapped model scores.
	resp2, body2 := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("score after reload = %d, body %s", resp2.StatusCode, body2)
	}
	// Corrupt file: the reload is refused as unprocessable, and the old
	// snapshot keeps serving.
	current := m.Pipeline()
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp3, body3 := postScore(t, ts.URL+"/v1/reload?model=ecg", nil)
	var eb httpapi.ErrorBody
	if resp3.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body3, &eb) != nil || eb.Error.Code != httpapi.CodeUnprocessable {
		t.Fatalf("corrupt reload = %d %s, want a 422 %s envelope", resp3.StatusCode, body3, httpapi.CodeUnprocessable)
	}
	if m.Pipeline() != current {
		t.Fatal("failed reload must keep serving the old model")
	}
	// A file that cannot be read is the server's fault: 500.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if resp, body := postScore(t, ts.URL+"/v1/reload?model=ecg", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of a missing file = %d %s, want 500", resp.StatusCode, body)
	}
	if m.Pipeline() != current {
		t.Fatal("failed reload must keep serving the old model")
	}
	resp4, _ := postScore(t, ts.URL+"/v1/reload?model=nope", nil)
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown reload status = %d, want 404", resp4.StatusCode)
	}
}

func TestServerHealthReadyAndDrain(t *testing.T) {
	// Empty registry: alive but not ready.
	reg := NewRegistry()
	pool := NewPool(PoolOptions{Workers: 1})
	t.Cleanup(pool.Close)
	srv, err := NewServer(Config{Registry: reg, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models = %d, want 503", got)
	}
	path, _, _ := saveModel(t, t.TempDir(), "m.json", 7)
	if err := reg.Load("m", path); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with model = %d, want 200", got)
	}
	srv.Drain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz draining = %d, want 200", got)
	}
}

func TestServerModelListAndInfo(t *testing.T) {
	ts, _, _, _, path, _ := testStack(t, PoolOptions{Workers: 1}, 8)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list map[string][]modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	models := list["models"]
	if len(models) != 1 || models[0].Name != "ecg" || models[0].Path != path {
		t.Fatalf("list = %+v", models)
	}
	if models[0].Detector != "iFor" || models[0].Mapping != "log-curvature" || models[0].GridSize == 0 {
		t.Fatalf("metadata = %+v", models[0])
	}
	resp2, err := http.Get(ts.URL + "/v1/models/ecg")
	if err != nil {
		t.Fatal(err)
	}
	var info modelInfo
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if info.Name != "ecg" {
		t.Fatalf("info = %+v", info)
	}
	resp3, err := http.Get(ts.URL + "/v1/models/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost info = %d, want 404", resp3.StatusCode)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 9)
	for i := 0; i < 3; i++ {
		resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{i}, 0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score %d = %d, body %s", i, resp.StatusCode, body)
		}
	}
	// A 404: a model the registry does not hold labels no series.
	postScore(t, ts.URL+"/v1/score?model=nope", scoreBody(t, ds, []int{0}, 0))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`mfod_requests_total{model="ecg",code="200"} 3`,
		`mfod_requests_total{model="(other)",code="404"} 1`,
		`mfod_request_duration_seconds_bucket{le="+Inf"} 4`,
		"mfod_request_duration_seconds_count 4",
		"mfod_panics_total 0",
		"mfod_inflight_requests 0",
		"mfod_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// scaledSample returns s with every value multiplied by c.
func scaledSample(s fda.Sample, c float64) fda.Sample {
	out := fda.Sample{Times: s.Times, Values: make([][]float64, len(s.Values))}
	for k, row := range s.Values {
		out.Values[k] = make([]float64, len(row))
		for j, v := range row {
			out.Values[k][j] = v * c
		}
	}
	return out
}

// TestServerUnscorableCurves422: finite curves the model cannot score
// get a 422, never a score, on /v1/score and on a scored stream append.
// Scaled by 1e100, a Fig. 3 curve's curvature is NaN on the whole grid
// (geometry.ErrMapping); scaled by 1e308, every λ's smoothing
// coefficients overflow (fda.ErrFit).
func TestServerUnscorableCurves422(t *testing.T) {
	ts, _, _, _, _ := streamStack(t, StreamOptions{}, 3)
	fig3, err := experiments.Fig3Dataset(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []float64{1e100, 1e308} {
		s := scaledSample(fig3.Samples[3], c)
		ds := fda.Dataset{Samples: []fda.Sample{s}}
		resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("scale %g: /v1/score status = %d, want 422 (body %s)", c, resp.StatusCode, body)
		}
		idx := make([]int, len(s.Times))
		for j := range idx {
			idx[j] = j
		}
		url := fmt.Sprintf("%s/v1/streams/s%d/append?score=1", ts.URL, i)
		resp, body = postScore(t, url, streamAppendBody(t, s, idx))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("scale %g: scored append status = %d, want 422 (body %s)", c, resp.StatusCode, body)
		}
	}
}
