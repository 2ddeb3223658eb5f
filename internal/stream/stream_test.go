package stream_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/httpapi"
	"repro/internal/iforest"
	"repro/internal/stream"
)

// fitTestModel fits a small bivariate pipeline; Standardize is on
// because partial scoring requires training feature statistics.
func fitTestModel(t testing.TB) (*core.Pipeline, fda.Dataset) {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 20, Points: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{8}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 20, Seed: 3}),
		Standardize:  true,
		Parallel:     1,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	return p, d
}

func newTestManager(t testing.TB, p *core.Pipeline, opt stream.Options) *stream.Manager {
	t.Helper()
	opt.Resolve = func(name string) (stream.Model, bool) {
		if name != "ecg" {
			return nil, false
		}
		return p, true
	}
	m, err := stream.NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func samplePoints(s fda.Sample, from, to int) []stream.Point {
	pts := make([]stream.Point, 0, to-from)
	for j := from; j < to; j++ {
		v := make([]float64, len(s.Values))
		for k := range s.Values {
			v[k] = s.Values[k][j]
		}
		pts = append(pts, stream.Point{T: s.Times[j], V: v})
	}
	return pts
}

// TestManagerLifecycle: create-on-first-append, widening early-warning
// scores, batch equivalence at completion, delete.
func TestManagerLifecycle(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{})
	s := d.Samples[0]
	half := len(s.Times) / 2

	if _, err := m.Append("s1", "", samplePoints(s, 0, half), false); err == nil {
		t.Fatal("first append without a model must fail")
	}
	res, err := m.Append("s1", "ecg", samplePoints(s, 0, half), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != half || res.Seq != uint64(half) {
		t.Fatalf("append ack: %+v", res)
	}
	if res.Score == nil {
		t.Fatal("?score append returned no event")
	}
	halfTo := res.Score.GridTo
	if res.Score.Coverage >= 1 {
		t.Fatalf("half stream claims full coverage: %+v", res.Score)
	}

	if _, err := m.Append("s1", "other", samplePoints(s, half, half+1), false); err == nil {
		t.Fatal("model mismatch must fail")
	}

	res, err = m.Append("s1", "ecg", samplePoints(s, half, len(s.Times)), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score == nil || res.Score.GridTo <= halfTo {
		t.Fatalf("observed window did not widen: %+v", res.Score)
	}
	if res.Score.Coverage != 1 {
		t.Fatalf("completed stream coverage %v != 1", res.Score.Coverage)
	}
	want, err := p.ScoreOne(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Score.Score) != math.Float64bits(want) {
		t.Fatalf("completed stream score %v != batch %v", res.Score.Score, want)
	}
	if m.Active() != 1 || m.AppendsTotal() != uint64(len(s.Times)) {
		t.Fatalf("counters: active=%d appends=%d", m.Active(), m.AppendsTotal())
	}
	if !m.Delete("s1") {
		t.Fatal("delete reported unknown stream")
	}
	if _, err := m.Score("s1"); err == nil {
		t.Fatal("score after delete must fail")
	}
	if m.Active() != 0 {
		t.Fatalf("active after delete: %d", m.Active())
	}
}

// TestManagerEviction: idle streams are reclaimed by the janitor and
// counted; active streams that keep scoring are not.
func TestManagerEviction(t *testing.T) {
	p, d := fitTestModel(t)
	evicted := make(chan string, 4)
	m := newTestManager(t, p, stream.Options{
		IdleTTL: 40 * time.Millisecond,
		OnEvict: func(id string) { evicted <- id },
	})
	if _, err := m.Append("idle", "ecg", samplePoints(d.Samples[0], 0, 5), false); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-evicted:
		if id != "idle" {
			t.Fatalf("evicted %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle stream never evicted")
	}
	if m.Active() != 0 || m.EvictedTotal() != 1 {
		t.Fatalf("after eviction: active=%d evicted=%d", m.Active(), m.EvictedTotal())
	}
}

// TestManagerCaps: the stream table cap and per-append cap hold.
func TestManagerCaps(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{MaxStreams: 2, MaxAppend: 4})
	pts := samplePoints(d.Samples[0], 0, 3)
	for i := 0; i < 2; i++ {
		if _, err := m.Append(fmt.Sprintf("s%d", i), "ecg", pts, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Append("s2", "ecg", pts, false); err == nil {
		t.Fatal("table cap not enforced")
	}
	if _, err := m.Append("s0", "ecg", samplePoints(d.Samples[0], 0, 5), false); err == nil {
		t.Fatal("per-append cap not enforced")
	}
}

// TestManagerPointLimit: a stream holds at most stream.MaxPoints
// distinct times; the append that would pass the bound fails whole,
// with fda.ErrData, and leaves the stream as it was. A window at the
// bound counts the append after its trim, so that stream keeps going.
func TestManagerPointLimit(t *testing.T) {
	p, _ := fitTestModel(t)
	lo, hi := p.Domain()
	n := stream.MaxPoints + 1
	pts := make([]stream.Point, n)
	for j := range pts {
		pts[j] = stream.Point{T: lo + (hi-lo)*float64(j)/float64(n-1), V: []float64{1, 2}}
	}
	for _, window := range []int{0, stream.MaxPoints} {
		m := newTestManager(t, p, stream.Options{Window: window})
		for from := 0; from < stream.MaxPoints; from += 1024 {
			if _, err := m.Append("big", "ecg", pts[from:from+1024], false); err != nil {
				t.Fatalf("window %d: append from %d: %v", window, from, err)
			}
		}
		_, err := m.Append("big", "ecg", pts[stream.MaxPoints:], false)
		if window == 0 && !errors.Is(err, fda.ErrData) {
			t.Fatalf("append past the point limit: %v", err)
		}
		if window > 0 && err != nil {
			t.Fatalf("window %d: append after the window fills: %v", window, err)
		}
		s, ok := m.Get("big")
		if !ok {
			t.Fatal("stream vanished")
		}
		if got := s.Status().Points; got != stream.MaxPoints {
			t.Fatalf("window %d: stream holds %d points, want %d", window, got, stream.MaxPoints)
		}
	}
}

// TestManagerSlidingWindow: with a Window the stream keeps the newest
// points, and every score is bitwise the partial score of a batch fit
// over exactly those points.
func TestManagerSlidingWindow(t *testing.T) {
	const window, batch = 12, 5
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{Window: window})
	s := d.Samples[0]
	opt := p.Smooth
	opt.Lo, opt.Hi = p.Domain()
	for seen := batch; seen <= len(s.Times); seen += batch {
		res, err := m.Append("w", "ecg", samplePoints(s, seen-batch, seen), true)
		if err != nil {
			t.Fatalf("append through %d: %v", seen, err)
		}
		from := max(0, seen-window)
		if res.Points != seen-from {
			t.Fatalf("after %d points the stream holds %d, want %d", seen, res.Points, seen-from)
		}
		if res.From != s.Times[from] {
			t.Fatalf("after %d points From = %v, want the oldest kept time %v", seen, res.From, s.Times[from])
		}
		kept := fda.Sample{Times: s.Times[from:seen], Values: make([][]float64, len(s.Values))}
		for k := range s.Values {
			kept.Values[k] = s.Values[k][from:seen]
		}
		fit, err := fda.FitSample(kept, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := p.ScorePartialFit(fit, kept.Times[0], kept.Times[len(kept.Times)-1])
		if err != nil {
			t.Fatal(err)
		}
		if res.Score == nil || math.Float64bits(res.Score.Score) != math.Float64bits(want) {
			t.Fatalf("after %d points: stream score %+v, batch score over the window %v", seen, res.Score, want)
		}
	}
}

// mount serves api on a route table whose body cap is maxBody.
func mount(api *stream.API, maxBody int64) http.Handler {
	table := httpapi.NewTable(maxBody, nil, nil, nil)
	api.Mount(table)
	return table.Handler()
}

func bootAPI(t testing.TB, m *stream.Manager) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mount(&stream.API{Manager: m}, 1<<16))
	t.Cleanup(ts.Close)
	return ts
}

func appendBody(t testing.TB, model string, pts []stream.Point) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"model": model, "points": pts})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func doJSON(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestHTTPSurface drives the whole route table: envelope-carrying
// errors, create-append-score, status, list, delete.
func TestHTTPSurface(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{})
	ts := bootAPI(t, m)
	s := d.Samples[1]

	// Envelope checks on the error paths.
	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   []byte
		want   int
	}{
		{"bad json", "POST", ts.URL + "/v1/streams/x/append", []byte("{"), 400},
		{"unknown model", "POST", ts.URL + "/v1/streams/x/append", appendBody(t, "nope", samplePoints(s, 0, 2)), 404},
		{"no model on create", "POST", ts.URL + "/v1/streams/x/append", appendBody(t, "", samplePoints(s, 0, 2)), 404},
		{"empty points", "POST", ts.URL + "/v1/streams/x/append", appendBody(t, "ecg", nil), 400},
		{"score unknown", "GET", ts.URL + "/v1/streams/nope/score", nil, 404},
		{"status unknown", "GET", ts.URL + "/v1/streams/nope", nil, 404},
		{"delete unknown", "DELETE", ts.URL + "/v1/streams/nope", nil, 404},
		{"bad method", "PUT", ts.URL + "/v1/streams/x/append", nil, 405},
		{"bad method score", "POST", ts.URL + "/v1/streams/x/score", nil, 405},
	} {
		code, body := doJSON(t, tc.method, tc.url, tc.body)
		if code != tc.want {
			t.Fatalf("%s: code %d want %d: %s", tc.name, code, tc.want, body)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Fatalf("%s: not a v1 envelope: %s", tc.name, body)
		}
	}

	// Happy path: append half, 422 before 2 points is impossible here so
	// append a single point first to see the not-ready score.
	code, body := doJSON(t, "POST", ts.URL+"/v1/streams/live/append", appendBody(t, "ecg", samplePoints(s, 0, 1)))
	if code != 200 {
		t.Fatalf("first append: %d %s", code, body)
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/streams/live/score", nil)
	if code != 422 {
		t.Fatalf("score with one point: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/streams/live/append?score=1", appendBody(t, "ecg", samplePoints(s, 1, len(s.Times))))
	if code != 200 {
		t.Fatalf("append rest: %d %s", code, body)
	}
	var res stream.AppendResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Score == nil || res.Score.Coverage != 1 {
		t.Fatalf("completed stream event: %+v", res.Score)
	}
	want, err := p.ScoreOne(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Score.Score) != math.Float64bits(want) {
		t.Fatalf("HTTP score %v != batch %v", res.Score.Score, want)
	}

	code, body = doJSON(t, "GET", ts.URL+"/v1/streams", nil)
	if code != 200 || !strings.Contains(string(body), `"live"`) {
		t.Fatalf("list: %d %s", code, body)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams/live", nil)
	if code != 200 {
		t.Fatalf("status: %d", code)
	}
	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/streams/live", nil)
	if code != 200 {
		t.Fatalf("delete: %d", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams/live", nil)
	if code != 404 {
		t.Fatalf("status after delete: %d", code)
	}
}

// TestHTTPBodyCap: oversized append bodies 413 with the envelope.
func TestHTTPBodyCap(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{})
	ts := httptest.NewServer(mount(&stream.API{Manager: m}, 256))
	t.Cleanup(ts.Close)
	body := appendBody(t, "ecg", samplePoints(d.Samples[0], 0, 30))
	code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/big/append", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", code, raw)
	}
	if !strings.Contains(string(raw), "payload_too_large") {
		t.Fatalf("envelope code missing: %s", raw)
	}
}

// TestHTTPAdmit: the Admit hook sheds appends with a retryable 429.
func TestHTTPAdmit(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{})
	shed := fmt.Errorf("induced overload")
	ts := httptest.NewServer(mount(&stream.API{Manager: m, Admit: func() error { return shed }}, 1<<16))
	t.Cleanup(ts.Close)
	code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/x/append", appendBody(t, "ecg", samplePoints(d.Samples[0], 0, 2)))
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed append: %d %s", code, raw)
	}
	if !strings.Contains(string(raw), "overloaded") || !strings.Contains(string(raw), "retry_after_ms") {
		t.Fatalf("shed envelope: %s", raw)
	}
}

// TestWatchNDJSON: a watcher sees an event per append with a widening
// observed window, then the terminal final event on delete.
func TestWatchNDJSON(t *testing.T) {
	p, d := fitTestModel(t)
	m := newTestManager(t, p, stream.Options{})
	ts := bootAPI(t, m)
	s := d.Samples[2]
	if _, err := m.Append("w", "ecg", samplePoints(s, 0, 10), false); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/streams/w/score?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	lines := make(chan stream.ScoreEvent, 16)
	errs := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ev stream.ScoreEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				errs <- fmt.Errorf("bad score event %q: %w", sc.Bytes(), err)
				return
			}
			lines <- ev
		}
	}()

	next := func() stream.ScoreEvent {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatal("watch closed early")
			}
			return ev
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(5 * time.Second):
			t.Fatal("no watch event")
		}
		panic("unreachable")
	}

	first := next()
	if first.Final || first.Points != 10 {
		t.Fatalf("first event: %+v", first)
	}
	if _, err := m.Append("w", "ecg", samplePoints(s, 10, len(s.Times)), false); err != nil {
		t.Fatal(err)
	}
	second := next()
	if second.Seq <= first.Seq || second.To <= first.To {
		t.Fatalf("watch event did not widen: %+v then %+v", first, second)
	}
	m.Delete("w")
	for {
		ev := next()
		if ev.Final {
			break
		}
	}
}
