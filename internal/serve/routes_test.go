package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/stream"
)

// cappedStack is a replica with jobs and streams on and every request
// body capped at maxBody.
func cappedStack(t *testing.T, maxBody int64) (*httptest.Server, *jobs.Manager, *stream.Manager) {
	t.Helper()
	path, _, _ := saveModel(t, t.TempDir(), "model.json", 11)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	pool := NewPool(PoolOptions{Workers: 1, Metrics: metrics})
	t.Cleanup(pool.Close)
	jobsMgr, err := jobs.NewManager(jobs.Options{Runner: &JobRunner{Registry: reg, Pool: pool}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jobsMgr.Close)
	streams, err := NewStreamManager(reg, metrics, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(streams.Close)
	srv, err := NewServer(Config{
		Registry:     reg,
		Pool:         pool,
		Metrics:      metrics,
		Timeout:      10 * time.Second,
		MaxBodyBytes: maxBody,
		Jobs:         jobsMgr,
		Streams:      streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, jobsMgr, streams
}

// wantStatus posts body to url and requires status with its envelope
// code.
func wantStatus(t *testing.T, name, url string, body []byte, status int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	if resp.StatusCode != status || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeForStatus(status) {
		t.Errorf("%s: %d %s, want %d %s", name, resp.StatusCode, raw, status, httpapi.CodeForStatus(status))
	}
}

// TestBodyCapCoversJobsAndAppends: the replica's one body cap holds on
// every route. At 4096 bytes, a 7 KB body answers 413
// payload_too_large on /v1/jobs and on a stream append, as on
// /v1/score, and creates no job and no stream.
func TestBodyCapCoversJobsAndAppends(t *testing.T) {
	const maxBody = 4096
	ts, jobsMgr, streams := cappedStack(t, maxBody)
	ds := testDataset(t, 8, 5)
	job := scoreBody(t, ds, []int{0, 1, 2}, 0)
	// One curve's points, padded past the cap with trailing whitespace,
	// which keeps the append valid.
	s := ds.Samples[0]
	all := make([]int, len(s.Times))
	for i := range all {
		all[i] = i
	}
	add := append(streamAppendBody(t, s, all), bytes.Repeat([]byte(" "), 4500)...)
	for name, b := range map[string][]byte{"job": job, "append": add} {
		if len(b) <= maxBody || len(b) > 2*maxBody {
			t.Fatalf("%s body is %d bytes, want a 7 KB body over the %d-byte cap", name, len(b), maxBody)
		}
	}
	wantStatus(t, "score", ts.URL+"/v1/score?model=ecg", job, http.StatusRequestEntityTooLarge)
	wantStatus(t, "job", ts.URL+"/v1/jobs?model=ecg", job, http.StatusRequestEntityTooLarge)
	wantStatus(t, "append", ts.URL+"/v1/streams/big/append", add, http.StatusRequestEntityTooLarge)
	if _, ok := jobsMgr.Get("j000001"); ok {
		t.Error("the refused submit created a job")
	}
	if _, ok := streams.Get("big"); ok {
		t.Error("the refused append created its stream")
	}
}

// TestStreamListTrailingSlashMethodNotAllowed: the trailing-slash list
// route has its 405 twin like every route, so a wrong method on it
// answers 405 with Allow: GET, not 404.
func TestStreamListTrailingSlashMethodNotAllowed(t *testing.T) {
	ts, _, _, _, _ := streamStack(t, StreamOptions{}, 5)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" ||
		json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeMethodNotAllowed {
		t.Fatalf("POST /v1/streams/ = %d Allow %q %s, want 405 Allow GET", resp.StatusCode, resp.Header.Get("Allow"), raw)
	}
}

// requestSeries reads the mfod_requests_total series off a page:
// labels → count.
func requestSeries(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	series := map[string]string{}
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, "mfod_requests_total{"); ok {
			labels, val, _ := strings.Cut(rest, "} ")
			series[labels] = val
		}
	}
	return series
}

// TestRequestLabelsBounded: a replica labels a request with its ?model=
// only when its registry holds the model. A thousand made-up names, each
// sent as a 404 (a valid score body), a 400 (a malformed jobs body) and
// a 413 (a body over the cap), add no series past the first name's, and
// the loaded model keeps its label on every status.
func TestRequestLabelsBounded(t *testing.T) {
	ds := testDataset(t, 8, 5)
	valid := scoreBody(t, ds, []int{0}, 0)
	maxBody := len(valid) + 1024
	ts, _, _ := cappedStack(t, int64(maxBody))
	malformed := []byte(`{"samples":[{"times":[0,1],"values":[[1,null]]}]}`)
	big := append(append([]byte(nil), valid...), bytes.Repeat([]byte(" "), maxBody)...)

	resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", valid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score = %d: %s", resp.StatusCode, body)
	}
	wantStatus(t, "ecg jobs", ts.URL+"/v1/jobs?model=ecg", malformed, http.StatusBadRequest)
	wantStatus(t, "ecg too large", ts.URL+"/v1/score?model=ecg", big, http.StatusRequestEntityTooLarge)
	get, err := http.Get(ts.URL + "/v1/score?model=ecg")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	ghost := func(i int) {
		name := fmt.Sprintf("ghost-%d", i)
		wantStatus(t, name+" score", ts.URL+"/v1/score?model="+name, valid, http.StatusNotFound)
		wantStatus(t, name+" jobs", ts.URL+"/v1/jobs?model="+name, malformed, http.StatusBadRequest)
		wantStatus(t, name+" too large", ts.URL+"/v1/score?model="+name, big, http.StatusRequestEntityTooLarge)
	}
	ghost(0)
	first := requestSeries(t, ts.URL)
	for i := 1; i < 1000 && !t.Failed(); i++ {
		ghost(i)
	}
	last := requestSeries(t, ts.URL)
	if len(last) != len(first) {
		t.Errorf("%d mfod_requests_total series after one unknown model, %d after 1,000: %v", len(first), len(last), last)
	}
	want := map[string]string{
		`model="ecg",code="200"`:     "1",
		`model="ecg",code="400"`:     "1",
		`model="ecg",code="405"`:     "1",
		`model="ecg",code="413"`:     "1",
		`model="(other)",code="404"`: "1000",
		`model="(jobs)",code="400"`:  "1000",
		`model="(other)",code="413"`: "1000",
	}
	for labels, n := range want {
		if last[labels] != n {
			t.Errorf("mfod_requests_total{%s} = %q, want %s", labels, last[labels], n)
		}
	}
}
