package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/wire"
)

// FaultShed is the fault-injection point hit before limiter admission
// on every scoring request. Arming it with an error forces the request
// to be shed with a 429, so overload handling is testable without
// generating real overload.
const FaultShed = "serve.shed"

// Config wires a Server together. Registry and Pool are required;
// Metrics and Logger may be nil (observability off, logging discarded).
type Config struct {
	Registry *Registry
	Pool     *Pool
	Metrics  *Metrics
	// Timeout bounds one request end to end (queue wait + scoring);
	// 0 means 30s. Requests may shorten it per call with ?timeout=500ms
	// but never exceed it.
	Timeout time.Duration
	// MaxBodyBytes caps the request body; 0 means 32 MiB. Oversized
	// bodies are rejected with a JSON 413, not a connection reset.
	MaxBodyBytes int64
	// MaxSamples caps curves per /v1/score request; 0 means
	// DefaultMaxSamples. Exceeding it is a 400.
	MaxSamples int
	// MaxPoints caps measurement points per curve; 0 means
	// DefaultMaxPoints. Exceeding it is a 400.
	MaxPoints int
	// Limiter, when non-nil, is the adaptive concurrency limiter applied
	// to scoring requests before any decoding work; over-limit requests
	// are shed with 429 and a Retry-After derived from queue pressure.
	// Nil disables adaptive limiting (the bounded queue still applies).
	Limiter *AIMD
	// Jobs, when non-nil, mounts the async bulk-scoring endpoints
	// (POST /v1/jobs and friends) backed by this manager. Typically the
	// manager's Runner is a JobRunner over the same Registry and Pool.
	Jobs *jobs.Manager
	// Streams, when non-nil, mounts the streaming-ingestion endpoints
	// (POST /v1/streams/{id}/append and friends) backed by this manager;
	// see NewStreamManager for registry/metrics wiring.
	Streams *stream.Manager
	Logger  *slog.Logger
}

// Server exposes fitted pipelines over HTTP. Canonical v1 surface:
//
//	POST /v1/score?model={name}     score curves, optional explanations
//	POST /v1/reload?model={name}    atomic hot-reload from disk
//	GET  /v1/models                 list loaded models
//	GET  /v1/models/{name}          one model's metadata
//	POST /v1/jobs                   submit an async bulk-scoring job (when Config.Jobs set)
//	GET  /v1/jobs/{id}              poll a job
//	GET  /v1/jobs/{id}/results      stream job scores (resumable NDJSON)
//	DELETE /v1/jobs/{id}            cancel a job
//	GET  /healthz                   liveness (always 200 while up)
//	GET  /readyz                    readiness (503 before models / while draining)
//	GET  /metrics                   Prometheus text exposition
//
// Every 4xx/5xx on every route carries the v1 error envelope
// (internal/httpapi).
type Server struct {
	cfg      Config
	draining atomic.Bool
}

// NewServer validates the config and returns a Server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil || cfg.Pool == nil {
		return nil, errors.New("serve: Config needs Registry and Pool")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = DefaultMaxSamples
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = DefaultMaxPoints
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{cfg: cfg}, nil
}

// Drain flips readiness to 503 so load balancers stop sending new work;
// in-flight requests keep running. Part of the graceful-shutdown
// sequence: Drain → http.Server.Shutdown → Pool.Close.
func (s *Server) Drain() { s.draining.Store(true) }

// Handler returns the routing handler. Every /v1 request is counted
// under mfod_requests_total and logged by httpapi.Observe.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			httpapi.Error(w, http.StatusServiceUnavailable, "draining")
			return
		}
		if s.cfg.Registry.Len() == 0 {
			httpapi.Error(w, http.StatusServiceUnavailable, "no models loaded")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.cfg.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("/v1/models", httpapi.MethodNotAllowed("GET"))
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("/v1/score", httpapi.MethodNotAllowed("POST"))
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("/v1/reload", httpapi.MethodNotAllowed("POST"))
	mux.HandleFunc("GET /v1/models/{name}", s.handleModel)
	mux.HandleFunc("/v1/models/{name}", httpapi.MethodNotAllowed("GET"))
	if s.cfg.Jobs != nil {
		api := &jobs.API{
			Manager: s.cfg.Jobs,
			Validate: func(ds fda.Dataset) error {
				return SanitizeDataset(ds, jobsMaxSamples, s.cfg.MaxPoints)
			},
			CheckModel: func(name string) error {
				if _, ok := s.cfg.Registry.Get(name); !ok {
					return ErrUnknownModel
				}
				return nil
			},
		}
		api.Register(mux)
	}
	if s.cfg.Streams != nil {
		api := &stream.API{Manager: s.cfg.Streams, Admit: s.streamAdmit}
		api.Register(mux)
	}
	mux.HandleFunc("/", httpapi.NotFound)
	return httpapi.Observe(mux, s.cfg.Logger, s.cfg.Metrics.ObserveRequest)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// modelInfo is the metadata shape of the list and get endpoints.
type modelInfo struct {
	Name     string    `json:"name"`
	Path     string    `json:"path"`
	LoadedAt time.Time `json:"loadedAt"`
	Mapping  string    `json:"mapping"`
	Detector string    `json:"detector"`
	GridSize int       `json:"gridSize"`
}

func describe(m *Model) modelInfo {
	p := m.Pipeline()
	return modelInfo{
		Name:     m.Name(),
		Path:     m.Path(),
		LoadedAt: m.LoadedAt(),
		Mapping:  p.Mapping.Name(),
		Detector: p.Detector.Name(),
		GridSize: len(p.Grid()),
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	names := s.cfg.Registry.Names()
	infos := make([]modelInfo, 0, len(names))
	for _, n := range names {
		if m, ok := s.cfg.Registry.Get(n); ok {
			infos = append(infos, describe(m))
		}
	}
	writeJSON(w, map[string][]modelInfo{"models": infos})
}

// handleModel serves one model's metadata, GET /v1/models/{name}.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.cfg.Registry.Get(name)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	writeJSON(w, describe(m))
}

// handleReload is the hot-reload route POST /v1/reload?model=.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.ModelParam(w, r)
	if !ok {
		return
	}
	err := s.cfg.Registry.Reload(name)
	switch {
	case errors.Is(err, ErrUnknownModel):
		httpapi.Error(w, http.StatusNotFound, "unknown model %q", name)
	case err != nil:
		// The previous snapshot keeps serving; tell the operator why the
		// swap was refused.
		httpapi.Error(w, http.StatusInternalServerError, "reload failed, previous model still serving: %v", err)
	default:
		s.cfg.Metrics.ObserveReload(name)
		writeJSON(w, map[string]string{"reloaded": name})
	}
}

type jsonExplanation struct {
	Feature int     `json:"feature"`
	T       float64 `json:"t"`
	Z       float64 `json:"z"`
}

type scoreResponse struct {
	Model        string              `json:"model"`
	Scores       []float64           `json:"scores"`
	Explanations [][]jsonExplanation `json:"explanations,omitempty"`
	ElapsedMs    float64             `json:"elapsedMs"`
}

// decodeScoreBody reads the request body and decodes its curves under
// the codec its Content-Type names (wire.DecodeBody). A zero return
// code means success; otherwise the error response has already been
// written. The body size is recorded under its codec label, and the
// X-Mfod-Codec response header echoes which codec this hop decoded.
func (s *Server) decodeScoreBody(w http.ResponseWriter, r *http.Request) (wire.Body, int) {
	ct := r.Header.Get("Content-Type")
	codec := "json"
	if wire.IsFrame(ct) {
		codec = "wire"
	}
	w.Header().Set(httpapi.CodecHeader, codec)
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return wire.Body{}, httpapi.BodyError(w, err)
	}
	s.cfg.Metrics.ObserveRequestBytes(codec, len(raw))
	body, err := wire.DecodeBody(ct, raw)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "decode body: %v", err)
		return wire.Body{}, http.StatusBadRequest
	}
	return body, 0
}

// handleScore is the scoring route POST /v1/score?model=.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.ModelParam(w, r)
	if !ok {
		return
	}
	start := time.Now()
	s.cfg.Metrics.IncInflight()
	defer s.cfg.Metrics.DecInflight()
	// Admission control runs before any body is read: shedding is only
	// cheap if it spends no decode or scoring work on the shed request.
	forced := faultinject.Hit(FaultShed) != nil
	if forced || (s.cfg.Limiter != nil && !s.cfg.Limiter.Acquire()) {
		s.shed(w)
		return
	}
	code := s.score(w, r, name, start)
	if s.cfg.Limiter != nil {
		s.cfg.Limiter.Release(time.Since(start),
			code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests)
	}
}

// shed rejects one request at admission with a 429 whose Retry-After
// reflects measured queue pressure.
func (s *Server) shed(w http.ResponseWriter) {
	retryAfter := s.cfg.Pool.RetryAfter()
	httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverloaded,
		time.Duration(retryAfter)*time.Second,
		"server overloaded (adaptive concurrency limit), retry in ~%ds", retryAfter)
	s.cfg.Metrics.IncShed()
}

// unscorable reports whether a scoring error says the model cannot
// score the request's curves — wrong dimension, a failed smoothing
// fit, a mapping that does not apply, explain without Standardize —
// so the request is at fault (422), and a retry elsewhere would fail
// the same way.
func unscorable(err error) bool {
	return errors.Is(err, fda.ErrData) || errors.Is(err, fda.ErrFit) ||
		errors.Is(err, core.ErrPipeline) || errors.Is(err, geometry.ErrMapping)
}

// wantsScoresFrame reports whether the client asked for the binary
// partial-scores frame instead of the JSON response body.
func wantsScoresFrame(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.TrimSpace(mt) == wire.ScoresContentType {
				return true
			}
		}
	}
	return false
}

// score runs one scoring request and returns the status code it wrote.
func (s *Server) score(w http.ResponseWriter, r *http.Request, name string, start time.Time) int {
	// Parse the propagated deadline before touching the body: a request
	// whose caller has already given up must cost nothing further.
	budget, berr := resilience.BudgetFromHeader(r.Header)
	if berr != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", berr)
		return http.StatusBadRequest
	}
	if budget != nil && budget.Expired() {
		httpapi.Error(w, http.StatusGatewayTimeout, "deadline in %s already expired", resilience.DeadlineHeader)
		return http.StatusGatewayTimeout
	}
	m, ok := s.cfg.Registry.Get(name)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "unknown model %q", name)
		return http.StatusNotFound
	}
	body, code := s.decodeScoreBody(w, r)
	if code != 0 {
		return code
	}
	ds := body.Dataset
	// Sanitize before any numeric work: NaN/Inf samples, ragged or empty
	// grids and oversized requests never reach the smoothing layer. Both
	// codecs pass through here — the binary decoder checks frame shape,
	// not curve invariants.
	if verr := sanitizeDataset(ds, s.cfg.MaxSamples, s.cfg.MaxPoints); verr != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", verr)
		return http.StatusBadRequest
	}
	timeout := s.cfg.Timeout
	if qs := r.URL.Query().Get("timeout"); qs != "" {
		d, err := time.ParseDuration(qs)
		if err != nil || d <= 0 {
			httpapi.Error(w, http.StatusBadRequest, "bad timeout %q", qs)
			return http.StatusBadRequest
		}
		if d < timeout {
			timeout = d
		}
	}
	// The propagated budget caps the local timeout: this hop must not
	// keep working past the moment the caller walks away.
	if budget != nil {
		if rem := budget.Remaining(); rem < timeout {
			timeout = rem
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	job, err := s.cfg.Pool.Enqueue(ctx, m, ds, body.Explain)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry-After reflects measured queue pressure — depth over drain
		// rate — not a constant the client has no reason to trust.
		ra := s.cfg.Pool.RetryAfter()
		httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverloaded,
			time.Duration(ra)*time.Second, "scoring queue full, retry later")
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		httpapi.Error(w, http.StatusServiceUnavailable, "server shutting down")
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		httpapi.Error(w, http.StatusGatewayTimeout, "deadline expired before scoring started")
		return http.StatusGatewayTimeout
	case err != nil:
		httpapi.Error(w, http.StatusInternalServerError, "enqueue: %v", err)
		return http.StatusInternalServerError
	}
	res, done := job.Wait(ctx)
	if !done || errors.Is(res.Err, context.DeadlineExceeded) {
		httpapi.Error(w, http.StatusGatewayTimeout, "scoring did not finish within %v", timeout)
		return http.StatusGatewayTimeout
	}
	if res.Err != nil {
		code := http.StatusInternalServerError
		if unscorable(res.Err) {
			code = http.StatusUnprocessableEntity
		}
		httpapi.Error(w, code, "score: %v", res.Err)
		return code
	}
	if res.Explanations == nil && wantsScoresFrame(r) {
		// Binary response path for the scatter/gather inner hop: the
		// caller's ?start= is echoed into the frame so a chunk response
		// can only merge at its own offset.
		frameStart := 0
		if qs := r.URL.Query().Get("start"); qs != "" {
			n, err := strconv.Atoi(qs)
			if err != nil || n < 0 {
				httpapi.Error(w, http.StatusBadRequest, "bad start %q", qs)
				return http.StatusBadRequest
			}
			frameStart = n
		}
		w.Header().Set("Content-Type", wire.ScoresContentType)
		w.Write(wire.EncodeScores(wire.Scores{Start: frameStart, Values: res.Scores}))
		return http.StatusOK
	}
	resp := scoreResponse{
		Model:     name,
		Scores:    res.Scores,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
	}
	if res.Explanations != nil {
		resp.Explanations = make([][]jsonExplanation, len(res.Explanations))
		for i, exps := range res.Explanations {
			out := make([]jsonExplanation, len(exps))
			for k, e := range exps {
				out[k] = jsonExplanation{Feature: e.FeatureIndex, T: e.T, Z: e.Z}
			}
			resp.Explanations[i] = out
		}
	}
	writeJSON(w, resp)
	return http.StatusOK
}
