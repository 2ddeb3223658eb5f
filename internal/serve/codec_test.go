package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/wire"
)

// newCodecServer boots a full server over one fitted model ("m").
func newCodecServer(t *testing.T) *httptest.Server {
	t.Helper()
	path, _, _ := saveModel(t, t.TempDir(), "m.json", 1)
	reg := NewRegistry()
	if err := reg.Load("m", path); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	pool := NewPool(PoolOptions{Workers: 2, QueueCap: 16, Metrics: metrics})
	t.Cleanup(pool.Close)
	srv, err := NewServer(Config{Registry: reg, Pool: pool, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// codecScore sends body under contentType and decodes the JSON score
// response, failing the test on a non-200.
func codecScore(t *testing.T, base, contentType string, body []byte) []float64 {
	t.Helper()
	resp, err := http.Post(base+"/v1/score?model=m", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Scores
}

// TestCodecNegotiationBitwiseEquality: the same curves posted as JSON
// and as a binary wire frame yield bitwise-identical scores, and both
// codecs land in the mfod_request_bytes histogram with the wire body
// at most half the JSON size.
func TestCodecNegotiationBitwiseEquality(t *testing.T) {
	ts := newCodecServer(t)
	d := testDataset(t, 12, 5)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}

	jsonBody := scoreBody(t, d, idx, 0)
	wireBody := wire.EncodeRequest(wire.Request{Dataset: d})
	if ratio := float64(len(wireBody)) / float64(len(jsonBody)); ratio > 0.5 {
		t.Fatalf("wire body is %.0f%% of JSON, want <= 50%%", 100*ratio)
	}

	viaJSON := codecScore(t, ts.URL, "application/json", jsonBody)
	viaWire := codecScore(t, ts.URL, wire.ContentType, wireBody)
	if len(viaJSON) != d.Len() || len(viaWire) != d.Len() {
		t.Fatalf("score counts %d/%d for %d samples", len(viaJSON), len(viaWire), d.Len())
	}
	for i := range viaJSON {
		if viaJSON[i] != viaWire[i] { //mfodlint:allow floateq bitwise-equality assertion: the two codecs must produce the exact same scores, not merely close ones
			t.Fatalf("sample %d: json %v != wire %v", i, viaJSON[i], viaWire[i])
		}
	}

	// Content-Type parameters must not defeat the negotiation.
	codecScore(t, ts.URL, wire.ContentType+"; charset=binary", wireBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`mfod_request_bytes_count{codec="json"} 1`,
		`mfod_request_bytes_count{codec="wire"} 2`,
		`mfod_request_bytes_bucket{codec="wire",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output lacks %q:\n%s", want, text)
		}
	}
}

// TestWireBodyErrors: malformed binary frames are a JSON 400, and a
// structurally valid frame with invalid curves hits the same sanitizer
// as JSON bodies.
func TestWireBodyErrors(t *testing.T) {
	ts := newCodecServer(t)
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/score?model=m", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e httpapi.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("error body not a v1 envelope: %v (%+v)", err, e)
		}
		return resp.StatusCode
	}
	if code := post([]byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d", code)
	}
	// Valid frame, empty dataset: the shared sanitizer rejects it.
	if code := post(wire.EncodeRequest(wire.Request{})); code != http.StatusBadRequest {
		t.Fatalf("empty dataset: %d", code)
	}
}

// TestScoresFrameStart: a wire request that accepts the scores frame
// gets its ?start= echoed into the frame, and a start that is negative,
// not a number or past the int range is a 400, never a frame carrying
// an offset the caller did not send.
func TestScoresFrameStart(t *testing.T) {
	ts := newCodecServer(t)
	d := testDataset(t, 4, 7)
	body := wire.EncodeRequest(wire.Request{Dataset: d})
	post := func(start string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/score?model=m&start="+start, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ScoresContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	resp, raw := post("7")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ScoresContentType {
		t.Fatalf("start=7: %s %q (body %q)", resp.Status, resp.Header.Get("Content-Type"), raw)
	}
	frame, err := wire.DecodeScores(raw)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Start != 7 || len(frame.Values) != d.Len() {
		t.Fatalf("frame start %d with %d scores, want start 7 with %d", frame.Start, len(frame.Values), d.Len())
	}

	for _, bad := range []string{"-1", "x", "18446744073709551617"} {
		resp, raw := post(bad)
		var e httpapi.ErrorBody
		if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Code != httpapi.CodeBadRequest {
			t.Fatalf("start=%s: %s %q, want 400 %s", bad, resp.Status, raw, httpapi.CodeBadRequest)
		}
	}
}
