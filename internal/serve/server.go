package serve

import (
	"context"
	"errors"
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
// Metrics and Logger may be nil: the server then keeps a page of its
// own, which no pool or stream family joins, and discards its log.
type Config struct {
	Registry *Registry
	Pool     *Pool
	Metrics  *Metrics
	// Timeout bounds one request end to end (queue wait + scoring);
	// 0 means 30s. Requests may shorten it per call with ?timeout=500ms
	// but never exceed it.
	Timeout time.Duration
	// MaxBodyBytes caps every request body, /v1/jobs submits and stream
	// appends included; 0 means 32 MiB. Oversized bodies are rejected
	// with a JSON 413, not a connection reset.
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
//	/v1/streams/{id}/...            streaming ingestion (when Config.Streams set)
//	GET  /v1/streams                live stream ids
//	GET  /healthz                   liveness (always 200 while up)
//	GET  /readyz                    readiness (503 before models / while draining)
//	GET  /metrics                   Prometheus text exposition
//
// The routes are the shared entries of internal/httpapi, mounted on the
// tier's route table: it writes every response, so every 4xx/5xx
// carries the v1 error envelope, and every body is capped by
// Config.MaxBodyBytes.
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
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	if cfg.Limiter != nil {
		cfg.Metrics.reg.GaugeFunc("mfod_concurrency_limit", "Current adaptive concurrency limit.", cfg.Limiter.Limit)
	}
	cfg.Metrics.reg.GaugeFunc("mfod_basis_cache_entries", "Smoothing systems resident in the loaded models' basis caches.", cfg.Registry.cacheEntries)
	return &Server{cfg: cfg}, nil
}

// Drain flips readiness to 503 so load balancers stop sending new work;
// in-flight requests keep running. Part of the graceful-shutdown
// sequence: Drain → http.Server.Shutdown → Pool.Close.
func (s *Server) Drain() { s.draining.Store(true) }

// Handler returns the routing handler: the tier's route table, which
// counts every /v1 request under mfod_requests_total and logs it, under
// its ?model= only when the registry holds that model.
func (s *Server) Handler() http.Handler {
	t := httpapi.NewTable(s.cfg.MaxBodyBytes, s.cfg.Logger, s.cfg.Metrics.ObserveRequest, func(name string) bool {
		_, ok := s.cfg.Registry.Get(name)
		return ok
	})
	t.Probes(s.ready, s.cfg.Metrics.reg.WritePrometheus)
	t.Handle(httpapi.Score, s.handleScore)
	t.Handle(httpapi.Reload, s.handleReload)
	t.Handle(httpapi.Models, s.handleList)
	t.Handle(httpapi.ModelInfo, s.handleModel)
	if s.cfg.Jobs != nil {
		api := &jobs.API{
			Manager: s.cfg.Jobs,
			Validate: func(ds fda.Dataset) error {
				return sanitizeDataset(ds, jobsMaxSamples, s.cfg.MaxPoints)
			},
			CheckModel: func(name string) error {
				if _, ok := s.cfg.Registry.Get(name); !ok {
					return ErrUnknownModel
				}
				return nil
			},
		}
		api.Mount(t)
	}
	if s.cfg.Streams != nil {
		api := &stream.API{Manager: s.cfg.Streams, Admit: s.streamAdmit}
		api.Mount(t)
	}
	return t.Handler()
}

// ready is the readiness check: not while draining, and not before a
// model is loaded.
func (s *Server) ready() error {
	switch {
	case s.draining.Load():
		return errors.New("draining")
	case s.cfg.Registry.Len() == 0:
		return errors.New("no models loaded")
	}
	return nil
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

func (s *Server) handleList(*http.Request, []byte) httpapi.Reply {
	names := s.cfg.Registry.Names()
	infos := make([]modelInfo, 0, len(names))
	for _, n := range names {
		if m, ok := s.cfg.Registry.Get(n); ok {
			infos = append(infos, describe(m))
		}
	}
	return httpapi.JSON(map[string][]modelInfo{"models": infos})
}

// handleModel serves one model's metadata, GET /v1/models/{name}.
func (s *Server) handleModel(r *http.Request, _ []byte) httpapi.Reply {
	name := r.PathValue("name")
	m, ok := s.cfg.Registry.Get(name)
	if !ok {
		return httpapi.Errorf(http.StatusNotFound, "unknown model %q", name)
	}
	return httpapi.JSON(describe(m))
}

// handleReload is the hot-reload route POST /v1/reload?model=.
func (s *Server) handleReload(r *http.Request, _ []byte) httpapi.Reply {
	name, perr := httpapi.ModelParam(r)
	if perr != nil {
		return perr
	}
	err := s.cfg.Registry.Reload(name)
	switch {
	case errors.Is(err, ErrUnknownModel):
		return httpapi.Errorf(http.StatusNotFound, "unknown model %q", name)
	case errors.Is(err, core.ErrModelFile):
		// The file was read but is not a model this build loads; the
		// operator must fix the file, and the previous snapshot keeps
		// serving meanwhile.
		return httpapi.Errorf(http.StatusUnprocessableEntity, "reload refused, previous model still serving: %v", err)
	case err != nil:
		// The previous snapshot keeps serving; tell the operator why the
		// swap was refused.
		return httpapi.Errorf(http.StatusInternalServerError, "reload failed, previous model still serving: %v", err)
	}
	s.cfg.Metrics.reloads.Inc(name)
	return httpapi.JSON(map[string]string{"reloaded": name})
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

// handleScore is the scoring route POST /v1/score?model=. An unknown
// model is a 404 before anything else, so any other answer says the
// replica serves the model: the gate labels requests by that rule.
func (s *Server) handleScore(r *http.Request, raw []byte) httpapi.Reply {
	name, perr := httpapi.ModelParam(r)
	if perr != nil {
		return perr
	}
	m, ok := s.cfg.Registry.Get(name)
	if !ok {
		return httpapi.Errorf(http.StatusNotFound, "unknown model %q", name)
	}
	start := time.Now()
	s.cfg.Metrics.inflight.Add(1)
	defer s.cfg.Metrics.inflight.Add(-1)
	// Admission control runs before the body is decoded: shedding is
	// only cheap if it spends no decode or scoring work on the shed
	// request.
	forced := faultinject.Hit(FaultShed) != nil
	if forced || (s.cfg.Limiter != nil && !s.cfg.Limiter.Acquire()) {
		s.cfg.Metrics.shed.Inc()
		retryAfter := s.cfg.Pool.RetryAfter()
		return httpapi.Errorf(http.StatusTooManyRequests,
			"server overloaded (adaptive concurrency limit), retry in ~%ds", retryAfter).
			Retry(time.Duration(retryAfter) * time.Second)
	}
	reply := s.score(r, raw, m, start)
	if s.cfg.Limiter != nil {
		code := httpapi.StatusOf(reply)
		s.cfg.Limiter.Release(time.Since(start),
			code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests)
	}
	return reply
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

// score runs one scoring request for model m on its raw body.
func (s *Server) score(r *http.Request, raw []byte, m *Model, start time.Time) httpapi.Reply {
	// Parse the propagated deadline before decoding the body: a request
	// whose caller has already given up must cost nothing further.
	budget, berr := resilience.BudgetFromHeader(r.Header)
	if berr != nil {
		return httpapi.Errorf(http.StatusBadRequest, "%v", berr)
	}
	if budget != nil && budget.Expired() {
		return httpapi.Errorf(http.StatusGatewayTimeout, "deadline in %s already expired", resilience.DeadlineHeader)
	}
	// The body decodes under the codec its Content-Type names; its size
	// is recorded under that codec's label, and the X-Mfod-Codec header
	// of the answer echoes which codec this hop decoded.
	ct := r.Header.Get("Content-Type")
	codec := "json"
	if wire.IsFrame(ct) {
		codec = "wire"
	}
	s.cfg.Metrics.reqBytes.Observe(float64(len(raw)), codec)
	body, err := wire.DecodeBody(ct, raw)
	if err != nil {
		return httpapi.Errorf(http.StatusBadRequest, "decode body: %v", err)
	}
	ds := body.Dataset
	// Sanitize before any numeric work: NaN/Inf samples, ragged or empty
	// grids and oversized requests never reach the smoothing layer. Both
	// codecs pass through here — the binary decoder checks frame shape,
	// not curve invariants.
	if verr := sanitizeDataset(ds, s.cfg.MaxSamples, s.cfg.MaxPoints); verr != nil {
		return httpapi.Errorf(http.StatusBadRequest, "%v", verr)
	}
	timeout := s.cfg.Timeout
	if qs := r.URL.Query().Get("timeout"); qs != "" {
		d, err := time.ParseDuration(qs)
		if err != nil || d <= 0 {
			return httpapi.Errorf(http.StatusBadRequest, "bad timeout %q", qs)
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
		return httpapi.Errorf(http.StatusTooManyRequests, "scoring queue full, retry later").
			Retry(time.Duration(ra) * time.Second)
	case errors.Is(err, ErrPoolClosed):
		return httpapi.Errorf(http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return httpapi.Errorf(http.StatusGatewayTimeout, "deadline expired before scoring started")
	case err != nil:
		return httpapi.Errorf(http.StatusInternalServerError, "enqueue: %v", err)
	}
	res, done := job.Wait(ctx)
	if !done || errors.Is(res.Err, context.DeadlineExceeded) {
		return httpapi.Errorf(http.StatusGatewayTimeout, "scoring did not finish within %v", timeout)
	}
	if res.Err != nil {
		code := http.StatusInternalServerError
		if unscorable(res.Err) {
			code = http.StatusUnprocessableEntity
		}
		return httpapi.Errorf(code, "score: %v", res.Err)
	}
	if res.Explanations == nil && wantsScoresFrame(r) {
		// Binary response path for the scatter/gather inner hop: the
		// caller's ?start= is echoed into the frame so a chunk response
		// can only merge at its own offset.
		frameStart := 0
		if qs := r.URL.Query().Get("start"); qs != "" {
			n, err := strconv.Atoi(qs)
			if err != nil || n < 0 {
				return httpapi.Errorf(http.StatusBadRequest, "bad start %q", qs)
			}
			frameStart = n
		}
		return httpapi.Bytes(wire.ScoresContentType, wire.EncodeScores(wire.Scores{Start: frameStart, Values: res.Scores}))
	}
	resp := scoreResponse{
		Model:     m.Name(),
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
	return httpapi.JSON(resp).WithHeader(httpapi.CodecHeader, codec)
}
