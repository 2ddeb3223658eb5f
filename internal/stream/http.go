package stream

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
)

// API mounts the streaming routes on a mux:
//
//	POST   /v1/streams/{id}/append          append points (?score=1 piggybacks an event)
//	GET    /v1/streams/{id}/score           current early-warning event (?watch=1 streams NDJSON)
//	GET    /v1/streams/{id}                 status without refitting
//	DELETE /v1/streams/{id}                 close the stream
//	GET    /v1/streams                      list live stream ids
//
// Every 4xx/5xx carries the v1 error envelope.
type API struct {
	Manager *Manager
	// MaxBodyBytes caps append bodies; 0 means 1 MiB (append bodies are
	// small by design — bulk history loads belong on /v1/jobs).
	MaxBodyBytes int64
	// Admit, when set, runs before every append; an error sheds the
	// request with a 429 envelope (internal/serve wires the serve.shed
	// fault point and overload control here).
	Admit func() error
}

func (a *API) maxBody() int64 {
	if a.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return a.MaxBodyBytes
}

// Register mounts the routes. Method-less patterns answer 405 with an
// Allow header, matching the rest of the v1 surface.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/streams/{id}/append", a.handleAppend)
	mux.HandleFunc("/v1/streams/{id}/append", httpapi.MethodNotAllowed("POST"))
	mux.HandleFunc("GET /v1/streams/{id}/score", a.handleScore)
	mux.HandleFunc("/v1/streams/{id}/score", httpapi.MethodNotAllowed("GET"))
	mux.HandleFunc("GET /v1/streams/{id}", a.handleStatus)
	mux.HandleFunc("DELETE /v1/streams/{id}", a.handleDelete)
	mux.HandleFunc("/v1/streams/{id}", httpapi.MethodNotAllowed("GET, DELETE"))
	mux.HandleFunc("GET /v1/streams", a.handleList)
	mux.HandleFunc("GET /v1/streams/{$}", a.handleList)
	mux.HandleFunc("/v1/streams", httpapi.MethodNotAllowed("GET"))
}

// appendRequest is the append body. Model is required on the stream's
// first append and optional afterwards (when present it must match —
// and clients SHOULD send it every time, so a gate failover to a fresh
// replica can recreate the stream transparently).
type appendRequest struct {
	Model  string  `json:"model"`
	Points []Point `json:"points"`
}

func (a *API) handleAppend(w http.ResponseWriter, r *http.Request) {
	if a.Admit != nil {
		if err := a.Admit(); err != nil {
			httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverloaded,
				time.Second, "stream appends shed: %v", err)
			return
		}
	}
	id := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, a.maxBody())
	defer body.Close()
	var req appendRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpapi.BodyError(w, err)
		return
	}
	// Nothing but whitespace may follow the value, as on /v1/score.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("invalid data after top-level value")
		}
		httpapi.BodyError(w, err)
		return
	}
	withScore := r.URL.Query().Get("score") != ""
	res, err := a.Manager.Append(id, req.Model, req.Points, withScore)
	if err != nil {
		a.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *API) handleScore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") != "" {
		a.watch(w, r, id)
		return
	}
	ev, err := a.Manager.Score(id)
	if err != nil {
		a.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ev)
}

// watch streams one NDJSON score event per append until the client
// disconnects or the stream ends; the terminal event carries
// "final":true. Each line is flushed as written so early warnings reach
// slow readers immediately.
func (a *API) watch(w http.ResponseWriter, r *http.Request, id string) {
	s, ok := a.Manager.Get(id)
	if !ok {
		httpapi.ErrorCode(w, http.StatusNotFound, httpapi.CodeNotFound, "unknown stream %q", id)
		return
	}
	w.Header().Set("Content-Type", httpapi.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var lastSeq uint64
	sent := false
	for {
		// Grab the update channel BEFORE reading the score: an append
		// landing between the read and the wait closes this channel, so
		// the watcher can never sleep through it.
		updated := s.Updated()
		ev, err := s.Latest(a.Manager)
		switch {
		case err == nil && (!sent || ev.Seq != lastSeq):
			if encodeErr := enc.Encode(ev); encodeErr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent, lastSeq = true, ev.Seq
		case err != nil && errors.Is(err, ErrUnknownStream):
			// Deleted or evicted mid-watch: emit the terminal line.
			final := ScoreEvent{Stream: id, Model: s.ModelName(), Final: true}
			_ = enc.Encode(final)
			if flusher != nil {
				flusher.Flush()
			}
			return
		case err != nil && !errors.Is(err, ErrNotReady):
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-updated:
			if s.Closed() {
				final := ScoreEvent{Stream: id, Model: s.ModelName(), Final: true}
				_ = enc.Encode(final)
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
		}
	}
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s, ok := a.Manager.Get(id)
	if !ok {
		httpapi.ErrorCode(w, http.StatusNotFound, httpapi.CodeNotFound, "unknown stream %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (a *API) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !a.Manager.Delete(id) {
		httpapi.ErrorCode(w, http.StatusNotFound, httpapi.CodeNotFound, "unknown stream %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream": id, "deleted": true})
}

func (a *API) handleList(w http.ResponseWriter, _ *http.Request) {
	ids := a.Manager.IDs()
	writeJSON(w, http.StatusOK, map[string]any{"streams": ids, "active": len(ids)})
}

// writeErr maps the tier's sentinel errors onto the v1 envelope.
func (a *API) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownStream):
		httpapi.ErrorCode(w, http.StatusNotFound, httpapi.CodeNotFound, "%v", err)
	case errors.Is(err, ErrTooManyStreams):
		httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverloaded,
			time.Second, "%v", err)
	case errors.Is(err, ErrModelMismatch):
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrClosed):
		httpapi.ErrorCode(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, "%v", err)
	case errors.Is(err, ErrNotReady):
		httpapi.ErrorCode(w, http.StatusUnprocessableEntity, httpapi.CodeUnprocessable, "%v", err)
	case errors.Is(err, fda.ErrData):
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
	default:
		// Mapping/pipeline misconfiguration for this stream's arity, a
		// singular refit, etc.: the request decoded but cannot be scored.
		httpapi.ErrorCode(w, http.StatusUnprocessableEntity, httpapi.CodeUnprocessable, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful to do.
		_ = err
	}
}
