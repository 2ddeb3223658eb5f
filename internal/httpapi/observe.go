package httpapi

import (
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// Observe is the one observation site of a tier: it wraps the tier's
// whole handler and sees every /v1/ request exactly once, whatever
// route answers it. Each request gets one record call (model label,
// status code, seconds) and one Info log line "request" with method,
// path, model, code and durMs. Other paths — the /healthz and /readyz
// probes and the /metrics scrape — pass through unobserved.
//
// The model label is the request's ?model= value when set; otherwise a
// constant naming the route family: (stream), (jobs), (models),
// (topology) or (other). It never takes text from the path, so an
// unknown path cannot mint a new series.
func Observe(h http.Handler, log *slog.Logger, record func(model string, code int, seconds float64)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		dur := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK // net/http's answer for a handler that wrote nothing
		}
		model := modelLabel(r)
		record(model, code, dur.Seconds())
		log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("model", model),
			slog.Int("code", code),
			slog.Float64("durMs", float64(dur.Microseconds())/1000),
		)
	})
}

// routeFamilies are the label constants of the /v1 routes that carry
// no ?model=, by path root.
var routeFamilies = []struct{ root, label string }{
	{"/v1/streams", "(stream)"},
	{"/v1/jobs", "(jobs)"},
	{"/v1/models", "(models)"},
	{"/v1/topology", "(topology)"},
}

func modelLabel(r *http.Request) string {
	if m := r.URL.Query().Get("model"); m != "" {
		return m
	}
	for _, f := range routeFamilies {
		if r.URL.Path == f.root || strings.HasPrefix(r.URL.Path, f.root+"/") {
			return f.label
		}
	}
	return "(other)"
}

// statusWriter records the first status a handler answers with. It
// keeps Flush, so NDJSON job results and stream watches stay flushed
// line by line through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
