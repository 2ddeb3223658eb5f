package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type observed struct {
	model string
	code  int
}

// observeStub wraps h in Observe with a JSON log captured in buf and
// every record call appended to recs.
func observeStub(h http.Handler, buf *bytes.Buffer, recs *[]observed) http.Handler {
	log := slog.New(slog.NewJSONHandler(buf, nil))
	return Observe(h, log, func(model string, code int, seconds float64) {
		if seconds < 0 {
			panic("negative latency")
		}
		*recs = append(*recs, observed{model, code})
	})
}

// TestObserveLabelsAndCodes: every /v1 request is recorded and logged
// once under the label rule, with the status the handler wrote (200
// when it wrote nothing); probes and the scrape pass through unseen.
func TestObserveLabelsAndCodes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/score", func(w http.ResponseWriter, r *http.Request) {
		Error(w, http.StatusTeapot, "first status wins")
		w.WriteHeader(http.StatusOK) // superfluous: must not overwrite the record
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "{}") })
	mux.HandleFunc("GET /v1/topology", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/", NotFound)
	var buf bytes.Buffer
	var recs []observed
	h := observeStub(mux, &buf, &recs)

	cases := []struct {
		method, target string
		want           observed
	}{
		{"POST", "/v1/score?model=ecg", observed{"ecg", http.StatusTeapot}},
		{"GET", "/v1/jobs/j1", observed{"(jobs)", http.StatusOK}},
		{"GET", "/v1/jobs/j1?model=m7", observed{"m7", http.StatusOK}},
		{"GET", "/v1/topology", observed{"(topology)", http.StatusOK}},
		{"GET", "/v1/streams/s1/score", observed{"(stream)", http.StatusNotFound}},
		{"GET", "/v1/streams", observed{"(stream)", http.StatusNotFound}},
		{"GET", "/v1/models/ecg", observed{"(models)", http.StatusNotFound}},
		{"GET", "/v1/modelsx", observed{"(other)", http.StatusNotFound}},
		{"GET", "/v1/no-such-route-42", observed{"(other)", http.StatusNotFound}},
	}
	for _, c := range cases {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.target, nil))
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v2/x", "/v1"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	if len(recs) != len(cases) {
		t.Fatalf("%d records for %d /v1 requests: %v", len(recs), len(cases), recs)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("%d log lines for %d /v1 requests:\n%s", len(lines), len(cases), buf.String())
	}
	for i, c := range cases {
		if recs[i] != c.want {
			t.Errorf("%s %s recorded %+v, want %+v", c.method, c.target, recs[i], c.want)
		}
		var line struct {
			Msg, Method, Path, Model string
			Code                     int
			DurMs                    *float64
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatal(err)
		}
		path, _, _ := strings.Cut(c.target, "?")
		if line.Msg != "request" || line.Method != c.method || line.Path != path ||
			line.Model != c.want.model || line.Code != c.want.code || line.DurMs == nil {
			t.Errorf("log line %s, want %s %s model=%s code=%d with durMs", lines[i], c.method, path, c.want.model, c.want.code)
		}
	}
}

// TestObserveKeepsFlush: a handler behind the middleware still reaches
// the connection's Flusher, so NDJSON lines leave as they are written.
func TestObserveKeepsFlush(t *testing.T) {
	h := Observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("the observed writer is not an http.Flusher")
		}
		io.WriteString(w, "{}\n")
		f.Flush()
	}), slog.New(slog.NewTextHandler(io.Discard, nil)), func(string, int, float64) {})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/streams/s/score?watch=1", nil))
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
}
