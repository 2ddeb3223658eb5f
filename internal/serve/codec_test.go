package serve

import (
	"bytes"
	"encoding/json"
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
