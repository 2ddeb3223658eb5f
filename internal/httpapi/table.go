package httpapi

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// Route is one entry of the v1 route list: a method, a mux pattern, and
// the label its requests are recorded under when they carry no ?model=
// the tier knows.
type Route struct {
	Method, Pattern, Label string
}

// The v1 routes, each declared once for both tiers: a replica and the
// gate attach their own handlers to the same entries.
var (
	Score     = Route{http.MethodPost, "/v1/score", labelOther}
	Reload    = Route{http.MethodPost, "/v1/reload", labelOther}
	Models    = Route{http.MethodGet, "/v1/models", "(models)"}
	ModelInfo = Route{http.MethodGet, "/v1/models/{name}", "(models)"}
	Topology  = Route{http.MethodGet, "/v1/topology", "(topology)"}

	JobSubmit  = Route{http.MethodPost, "/v1/jobs", "(jobs)"}
	JobStatus  = Route{http.MethodGet, "/v1/jobs/{id}", "(jobs)"}
	JobCancel  = Route{http.MethodDelete, "/v1/jobs/{id}", "(jobs)"}
	JobResults = Route{http.MethodGet, "/v1/jobs/{id}/results", "(jobs)"}

	StreamAppend    = Route{http.MethodPost, "/v1/streams/{id}/append", "(stream)"}
	StreamScore     = Route{http.MethodGet, "/v1/streams/{id}/score", "(stream)"}
	StreamStatus    = Route{http.MethodGet, "/v1/streams/{id}", "(stream)"}
	StreamDelete    = Route{http.MethodDelete, "/v1/streams/{id}", "(stream)"}
	StreamList      = Route{http.MethodGet, "/v1/streams", "(stream)"}
	StreamListSlash = Route{http.MethodGet, "/v1/streams/{$}", "(stream)"}
)

// Routes is the whole v1 route list.
var Routes = []Route{
	Score, Reload, Models, ModelInfo, Topology,
	JobSubmit, JobStatus, JobCancel, JobResults,
	StreamAppend, StreamScore, StreamStatus, StreamDelete, StreamList, StreamListSlash,
}

// labelOther labels the requests of routes that need a ?model= but got
// none the tier knows, and of unknown /v1 paths.
const labelOther = "(other)"

// Handler answers one request. The table has already read the body
// under the tier's cap; what the handler returns is the whole answer.
type Handler func(r *http.Request, body []byte) Reply

// Table is one tier's route table, and the only writer of its
// responses. From the routes attached to it, Handler derives:
//
//   - the body read: every body under the tier's one cap, 413
//     payload_too_large past it;
//   - the 405 twin of each pattern, an envelope with the Allow header
//     listing the methods attached to it, in the order they were;
//   - the 404 envelope for any other path;
//   - the observation: each /v1/ request — any route, 405s and unknown
//     paths included — is recorded once (model label, status, seconds)
//     and logged once as "request" with method, path, model, code and
//     durMs. The label is the ?model= value when the tier knows that
//     model, else the route's Label, and "(other)" for an unknown path;
//     it never takes text from the path, nor a model name the tier does
//     not know, so neither a path nor a made-up name can mint a series.
//     The probes and the scrape pass unobserved.
type Table struct {
	maxBody  int64
	log      *slog.Logger
	record   func(model string, code int, seconds float64)
	known    func(model string) bool
	bindings []binding
}

type binding struct {
	route Route
	h     Handler
}

// NewTable starts a tier's table. maxBody caps every request body;
// record and log observe each /v1/ request, and either may be nil.
// known reports whether the tier knows a model, whose name may then
// label its requests; it is asked once the request is answered, and a
// nil known knows none.
func NewTable(maxBody int64, log *slog.Logger, record func(model string, code int, seconds float64), known func(model string) bool) *Table {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Table{maxBody: maxBody, log: log, record: record, known: known}
}

// Handle attaches h to rt.
func (t *Table) Handle(rt Route, h Handler) {
	t.bindings = append(t.bindings, binding{rt, h})
}

// Probes attaches the routes both tiers answer alike: /healthz, always
// "ok"; /readyz, "ready", or a 503 naming the error ready returns; and
// /metrics, the page metrics writes.
func (t *Table) Probes(ready func() error, metrics func(io.Writer)) {
	const text = "text/plain; charset=utf-8"
	t.Handle(Route{Method: http.MethodGet, Pattern: "/healthz"}, func(*http.Request, []byte) Reply {
		return Bytes(text, []byte("ok\n"))
	})
	t.Handle(Route{Method: http.MethodGet, Pattern: "/readyz"}, func(*http.Request, []byte) Reply {
		if err := ready(); err != nil {
			return Errorf(http.StatusServiceUnavailable, "%v", err)
		}
		return Bytes(text, []byte("ready\n"))
	})
	t.Handle(Route{Method: http.MethodGet, Pattern: "/metrics"}, func(*http.Request, []byte) Reply {
		var page bytes.Buffer
		metrics(&page)
		return Bytes("text/plain; version=0.0.4; charset=utf-8", page.Bytes())
	})
}

// Handler returns the tier's handler: the attached routes, their 405
// twins and the 404 for every other path.
func (t *Table) Handler() http.Handler {
	mux := http.NewServeMux()
	var patterns []Route // the first route of each pattern
	allow := map[string][]string{}
	for _, b := range t.bindings {
		mux.HandleFunc(b.route.Method+" "+b.route.Pattern, t.serve(b.route.Label, b.h))
		if _, seen := allow[b.route.Pattern]; !seen {
			patterns = append(patterns, b.route)
		}
		allow[b.route.Pattern] = append(allow[b.route.Pattern], b.route.Method)
	}
	for _, rt := range patterns {
		methods := strings.Join(allow[rt.Pattern], ", ")
		mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			e := Errorf(http.StatusMethodNotAllowed, "%s does not allow %s", r.URL.Path, r.Method)
			e.allow = methods
			t.answer(w, r, rt.Label, time.Now(), e)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		t.answer(w, r, labelOther, time.Now(), Errorf(http.StatusNotFound, "no such route %q", r.URL.Path))
	})
	return mux
}

// serve reads the request body under the cap and answers with h.
func (t *Table) serve(label string, h Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var reply Reply
		rd := http.MaxBytesReader(w, r.Body, t.maxBody)
		var body []byte
		var err error
		if n := r.ContentLength; n > 0 && n <= t.maxBody {
			body, err = readDeclared(rd, n)
		} else {
			body, err = io.ReadAll(rd)
		}
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			reply = Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		case err != nil:
			reply = Errorf(http.StatusBadRequest, "request body: %v", err)
		default:
			reply = h(r, body)
		}
		t.answer(w, r, label, start, reply)
	}
}

// firstRead is the most a declared Content-Length reserves before any
// of its bytes arrive.
const firstRead = 64 << 10

// readDeclared reads a body that declared its length. The buffer starts
// at min(length, firstRead) and doubles each time the bytes that arrived
// fill it, taking the whole length once a doubling would leave less than
// firstRead to come (a 2048-curve Fig. 3 job frame is 4 MiB + 16 bytes).
// So a request holds about twice the bytes that arrived at most, and a
// large body costs about twice its size in allocations, where
// io.ReadAll's small steps cost about five times. A body that ends short
// of its length is io.ErrUnexpectedEOF; nothing after the length is
// read.
func readDeclared(r io.Reader, length int64) ([]byte, error) {
	buf := make([]byte, 0, min(length, firstRead))
	for int64(len(buf)) < length {
		if len(buf) == cap(buf) {
			next := 2 * int64(cap(buf))
			if length-next < firstRead {
				next = length
			}
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF && int64(len(buf)) < length:
			return nil, io.ErrUnexpectedEOF
		case err != nil && err != io.EOF:
			return nil, err
		}
	}
	return buf, nil
}

// answer writes reply and observes a /v1/ request.
func (t *Table) answer(w http.ResponseWriter, r *http.Request, label string, start time.Time, reply Reply) {
	reply.write(w)
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		return
	}
	if m := r.URL.Query().Get("model"); m != "" && t.known != nil && t.known(m) {
		label = m
	}
	code, dur := reply.status(), time.Since(start)
	if t.record != nil {
		t.record(label, code, dur.Seconds())
	}
	t.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("model", label),
		slog.Int("code", code),
		slog.Float64("durMs", float64(dur.Microseconds())/1000),
	)
}

// ModelParam returns the ?model= parameter of the routes that require
// one (/v1/score, /v1/reload), or the 400 when it is missing.
func ModelParam(r *http.Request) (string, *Error) {
	name := r.URL.Query().Get("model")
	if name == "" {
		return "", Errorf(http.StatusBadRequest, "missing ?model= parameter")
	}
	return name, nil
}
