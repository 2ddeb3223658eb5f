package gate_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fda"
	"repro/internal/gate"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// tier records one server of the gate harness from both sides: the
// request log the server writes itself, and every /v1 request that
// reached its handler, seen by a tap outside the server's own
// middleware.
type tier struct {
	log      lockedBuffer
	mu       sync.Mutex
	reached  []reached
	inflight atomic.Int64 // /v1 requests still inside the handler
}

// reached is one /v1 request as the tap saw it, with the model label
// the README's rule gives it: ?model= when the tier knows the model,
// else the route family's label. Every replica of the harness loads
// modelNames; the gate knows one from the first answer a replica gives
// for it, and labels that answer too, so on both tiers a name is known
// exactly when it is one of modelNames.
type reached struct {
	method, path, label string
	code                int
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func (tr *tier) logger() *slog.Logger { return slog.New(slog.NewJSONHandler(&tr.log, nil)) }

// familyLabels are the model labels of the /v1 route families that
// carry no ?model=; any other path is "(other)".
var familyLabels = map[string]string{
	"streams": "(stream)", "jobs": "(jobs)", "models": "(models)", "topology": "(topology)",
}

func (tr *tier) tap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		tr.inflight.Add(1)
		defer tr.inflight.Add(-1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(cw, r)
		label := r.URL.Query().Get("model")
		if !slices.Contains(modelNames, label) {
			label = "(other)"
			if l, ok := familyLabels[strings.Split(r.URL.Path, "/")[2]]; ok {
				label = l
			}
		}
		tr.mu.Lock()
		tr.reached = append(tr.reached, reached{r.Method, r.URL.Path, label, cw.code})
		tr.mu.Unlock()
	})
}

// codeWriter keeps the status a client received, and Flush, so the
// tap does not change how watches and results stream.
type codeWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *codeWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *codeWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// settle waits until no /v1 request is inside any server and the tallies
// have stopped moving, so hedge losers and relayed watches are counted.
func (h *gateHarness) settle(t *testing.T) {
	t.Helper()
	total := func() (n int, busy bool) {
		for _, tr := range h.tiers {
			tr.mu.Lock()
			n += len(tr.reached)
			tr.mu.Unlock()
			busy = busy || tr.inflight.Load() != 0
		}
		return n, busy
	}
	last := -1
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		n, busy := total()
		if !busy && n == last {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never settled")
		}
		last = n
	}
}

// check requires the server's log and /metrics page to record each /v1
// request that reached it exactly once, under its label and code, and
// nothing else.
func (tr *tier) check(t *testing.T, name, base, prefix string) {
	t.Helper()
	tr.mu.Lock()
	seen := append([]reached(nil), tr.reached...)
	tr.mu.Unlock()
	wantLog, wantPage := map[string]int{}, map[string]int{}
	for _, q := range seen {
		wantLog[fmt.Sprintf("%s %s model=%s code=%d", q.method, q.path, q.label, q.code)]++
		wantPage[fmt.Sprintf("model=%q,code=\"%d\"", q.label, q.code)]++
	}
	gotLog := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(tr.log.String()), "\n") {
		var rec struct {
			Msg, Method, Path, Model string
			Code                     int
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s: log line %q: %v", name, line, err)
		}
		if rec.Msg == "request" {
			gotLog[fmt.Sprintf("%s %s model=%s code=%d", rec.Method, rec.Path, rec.Model, rec.Code)]++
		}
	}
	compareTally(t, name+" log", wantLog, gotLog)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gotPage, count := map[string]int{}, -1
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+"requests_total{"); ok {
			labels, val, _ := strings.Cut(rest, "} ")
			gotPage[labels], _ = strconv.Atoi(val)
		}
		if val, ok := strings.CutPrefix(line, prefix+"request_duration_seconds_count "); ok {
			count, _ = strconv.Atoi(val)
		}
	}
	compareTally(t, name+" "+prefix+"requests_total", wantPage, gotPage)
	if count != len(seen) {
		t.Errorf("%s: %srequest_duration_seconds_count %d, %d /v1 requests reached it", name, prefix, count, len(seen))
	}
}

func compareTally(t *testing.T, what string, want, got map[string]int) {
	t.Helper()
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if want[k] != got[k] {
			t.Errorf("%s: %s recorded %d times, reached %d times", what, k, got[k], want[k])
		}
	}
}

// TestGateObservesEveryV1Route drives every /v1 route through the gate
// harness — score in both codecs and for a model no replica serves,
// reload, models, topology, a job and a stream with a live watch — and
// requires each server's log and page to record each request that
// reached it exactly once, under the label rule, while probes and
// scrapes stay unrecorded. The watch must see an append's event before
// the stream is deleted: lines stay flushed through the middleware.
func TestGateObservesEveryV1Route(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	do := func(method, path, contentType string, body []byte, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, raw)
		}
		return raw
	}

	do("POST", "/v1/score?model=m0", "application/json", jsonScoreBody(t, d, idx), http.StatusOK)
	do("POST", "/v1/score?model=m0", wire.ContentType, wireScoreBody(t, d, idx), http.StatusOK)
	do("POST", "/v1/reload?model=m0", "", nil, http.StatusOK)
	do("GET", "/v1/models", "", nil, http.StatusOK)
	do("GET", "/v1/topology", "", nil, http.StatusOK)
	do("GET", "/v1/no-such-route", "", nil, http.StatusNotFound)
	do("POST", "/v1/score?model=ghost", "application/json", jsonScoreBody(t, d, idx), http.StatusNotFound)

	// A job: submit, status, results to the terminal line.
	var sub struct{ Job string }
	if err := json.Unmarshal(do("POST", "/v1/jobs?model=m0&chunk=4", "application/json", jsonScoreBody(t, d, idx), http.StatusAccepted), &sub); err != nil || sub.Job == "" {
		t.Fatalf("submit answer: %v", err)
	}
	do("GET", "/v1/jobs/"+sub.Job, "", nil, http.StatusOK)
	results := do("GET", "/v1/jobs/"+sub.Job+"/results", "", nil, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(results)), "\n")
	if _, end, err := jobs.ParseResultLine([]byte(lines[len(lines)-1])); err != nil || end == nil || end.State != jobs.StateDone {
		t.Fatalf("results did not end done: %s", results)
	}

	// A stream: append, watch, append seen live, score, delete.
	s := d.Samples[0]
	n := len(s.Times)
	do("POST", "/v1/streams/obs-1/append?score=1", "application/json", streamChunkBody(t, s.Times, s.Values, 0, n/2, "m0"), http.StatusOK)
	wresp, err := http.Get(h.base + "/v1/streams/obs-1/score?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("watch = %d", wresp.StatusCode)
	}
	events := make(chan string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(wresp.Body)
		for sc.Scan() {
			events <- sc.Text()
		}
	}()
	next := func(what string) string {
		t.Helper()
		select {
		case line, ok := <-events:
			if !ok {
				t.Fatalf("watch ended before %s", what)
			}
			return line
		case <-time.After(5 * time.Second):
			t.Fatalf("no watch line for %s: not flushed through the tiers", what)
		}
		return ""
	}
	next("the first append")
	do("POST", "/v1/streams/obs-1/append?score=1", "application/json", streamChunkBody(t, s.Times, s.Values, n/2, n, "m0"), http.StatusOK)
	next("the second append")
	do("GET", "/v1/streams/obs-1/score", "", nil, http.StatusOK)
	do("DELETE", "/v1/streams/obs-1", "", nil, http.StatusOK)
	for !strings.Contains(next("the final event"), `"final":true`) {
	}
	for range events { // the watch ends after its final line
	}

	h.settle(t)
	h.tiers["gate"].check(t, "gate", h.base, "mfodgate_")
	for _, name := range []string{"r1", "r2", "r3"} {
		h.tiers[name].check(t, name, h.replicas[name].URL, "mfod_")
	}
	if got := len(h.tiers["gate"].reached); got != 15 {
		t.Errorf("the tap saw %d gate requests, the test sent 15", got)
	}
}

// bodyRuleBodies are the two JSON bodies every tier refuses on
// /v1/score and /v1/jobs: a negative explain count, and a valid body
// followed by junk.
func bodyRuleBodies(t *testing.T, d fda.Dataset) map[string][]byte {
	t.Helper()
	s := d.Samples[0]
	sample := []map[string]any{{"times": s.Times, "values": s.Values}}
	neg, err := json.Marshal(map[string]any{"samples": sample, "explain": -1})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(map[string]any{"samples": sample})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"negative explain": neg, "trailing bytes": append(valid, " }garbage{"...)}
}

func wantGateBadRequest(t *testing.T, name, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeBadRequest {
		t.Errorf("%s: %d %s, want 400 %s", name, resp.StatusCode, raw, httpapi.CodeBadRequest)
	}
}

// TestGateScoreBodyRule: the gate's /v1/score refuses both bodies with
// the replica's answer, 400 bad_request, before transcoding.
func TestGateScoreBodyRule(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	for name, body := range bodyRuleBodies(t, d) {
		wantGateBadRequest(t, name, h.base+"/v1/score?model=m0", body)
	}
}

// TestGateJobsBodyRule: the gate's /v1/jobs refuses both bodies with
// 400 bad_request; no job is created.
func TestGateJobsBodyRule(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	for name, body := range bodyRuleBodies(t, d) {
		wantGateBadRequest(t, name, h.base+"/v1/jobs?model=m0", body)
	}
}

// TestGateStreamAppendBodyRule: a stream append through the gate that
// carries junk after its JSON value answers 400 bad_request, and the
// stream is not created on its home replica.
func TestGateStreamAppendBodyRule(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	s := d.Samples[0]
	body := append(streamChunkBody(t, s.Times, s.Values, 0, 3, "m0"), " }garbage{"...)
	wantGateBadRequest(t, "trailing bytes", h.base+"/v1/streams/junk/append", body)
	resp, err := http.Get(h.base + "/v1/streams/junk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("the refused append left a stream: status %d, want 404", resp.StatusCode)
	}
}

// TestGateReloadFailureEnvelope: a broadcast reload that fails on the
// replicas answers 502 with the v1 envelope, code upstream_error,
// naming each failing replica and its status.
func TestGateReloadFailureEnvelope(t *testing.T) {
	modelPath, _ := fitModelFile(t)
	h := bootGate(t, modelPath)
	resp, err := http.Post(h.base+"/v1/reload?model=ghost", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeUpstream {
		t.Fatalf("reload of an unknown model = %d %s, want a 502 %s envelope", resp.StatusCode, raw, httpapi.CodeUpstream)
	}
	for _, name := range []string{"r1", "r2", "r3"} {
		if !strings.Contains(eb.Error.Message, name+": 404 Not Found") {
			t.Errorf("message %q does not name %s and its status", eb.Error.Message, name)
		}
	}
}

// TestGateReloadRefusedModelFile: junk appended to the served model
// file makes a replica answer a reload with 422 unprocessable, not 500,
// while its previous snapshot keeps scoring; the gate's broadcast
// answers 502 naming each replica's 422.
func TestGateReloadRefusedModelFile(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	body := jsonScoreBody(t, d, []int{0})
	before := postScores(t, h.base, "m0", "application/json", body)
	f, err := os.OpenFile(modelPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":99} trailing junk`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.replicas["r1"].URL+"/v1/reload?model=m0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb httpapi.ErrorBody
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeUnprocessable {
		t.Fatalf("replica reload of a refused file = %d %s, want a 422 %s envelope", resp.StatusCode, raw, httpapi.CodeUnprocessable)
	}
	resp, err = http.Post(h.base+"/v1/reload?model=m0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeUpstream {
		t.Fatalf("gate reload of a refused file = %d %s, want a 502 %s envelope", resp.StatusCode, raw, httpapi.CodeUpstream)
	}
	for _, name := range []string{"r1", "r2", "r3"} {
		if !strings.Contains(eb.Error.Message, name+": 422 Unprocessable Entity") {
			t.Errorf("message %q does not name %s and its 422", eb.Error.Message, name)
		}
	}
	after := postScores(t, h.base, "m0", "application/json", body)
	if len(after) != len(before) || math.Float64bits(after[0]) != math.Float64bits(before[0]) {
		t.Fatalf("score after the refused reload = %v, before %v", after, before)
	}
}

// requestSeries reads the prefix+"requests_total" series off a page:
// labels → count.
func requestSeries(t *testing.T, base, prefix string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	series := map[string]string{}
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+"requests_total{"); ok {
			labels, val, _ := strings.Cut(rest, "} ")
			series[labels] = val
		}
	}
	return series
}

// TestGateRequestLabelsBounded: the gate labels a request with its
// ?model= only once a replica has answered for the model with anything
// but a 404. A thousand made-up names, each sent as a 404 (a valid body
// the replicas refuse), a 400 (a malformed body, on /v1/score and on
// /v1/jobs) and a 413 (a body over the cap), add no series past the
// first name's, and label none on a replica; a served model keeps its
// label on every status.
func TestGateRequestLabelsBounded(t *testing.T) {
	modelPath, d := fitModelFile(t)
	valid := jsonScoreBody(t, d, []int{0})
	maxBody := len(valid) + 1024
	h := bootGate(t, modelPath, func(c *gate.Config) { c.MaxBodyBytes = int64(maxBody) })
	malformed := []byte(`{"samples":[{"times":[0,1],"values":[[1,null]]}]}`)
	big := append(append([]byte(nil), valid...), bytes.Repeat([]byte(" "), maxBody)...)
	post := func(path string, body []byte, want int) {
		t.Helper()
		resp, err := http.Post(h.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, want, raw)
		}
	}

	post("/v1/score?model=m0", valid, http.StatusOK)
	post("/v1/score?model=m0", malformed, http.StatusBadRequest)
	post("/v1/jobs?model=m0", malformed, http.StatusBadRequest)
	post("/v1/score?model=m0", big, http.StatusRequestEntityTooLarge)
	get, err := http.Get(h.base + "/v1/score?model=m0")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	ghost := func(i int) {
		name := fmt.Sprintf("ghost-%d", i)
		post("/v1/score?model="+name, valid, http.StatusNotFound)
		post("/v1/score?model="+name, malformed, http.StatusBadRequest)
		post("/v1/jobs?model="+name, malformed, http.StatusBadRequest)
		post("/v1/score?model="+name, big, http.StatusRequestEntityTooLarge)
	}
	ghost(0)
	h.settle(t)
	first := requestSeries(t, h.base, "mfodgate_")
	for i := 1; i < 1000; i++ {
		ghost(i)
	}
	h.settle(t)
	if last := requestSeries(t, h.base, "mfodgate_"); len(last) != len(first) {
		t.Errorf("%d mfodgate_requests_total series after one unknown model, %d after 1,000: %v", len(first), len(last), last)
	}
	// Each name reached one replica, which answered 404 and labels it
	// "(other)".
	for name, ts := range h.replicas {
		for labels := range requestSeries(t, ts.URL, "mfod_") {
			if strings.Contains(labels, "ghost") {
				t.Errorf("%s: series %s", name, labels)
			}
		}
	}
	want := map[string]string{
		`model="m0",code="200"`:      "1",
		`model="m0",code="400"`:      "2",
		`model="m0",code="405"`:      "1",
		`model="m0",code="413"`:      "1",
		`model="(jobs)",code="400"`:  "1000",
		`model="(other)",code="404"`: "1000",
		`model="(other)",code="400"`: "1000",
		`model="(other)",code="413"`: "1000",
	}
	gatePage := requestSeries(t, h.base, "mfodgate_")
	for labels, n := range want {
		if gatePage[labels] != n {
			t.Errorf("mfodgate_requests_total{%s} = %q, want %s", labels, gatePage[labels], n)
		}
	}
}
