package stream

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/wire"
)

// API holds the streaming handlers:
//
//	POST   /v1/streams/{id}/append          append points (?score=1 piggybacks an event)
//	GET    /v1/streams/{id}/score           current early-warning event (?watch=1 streams NDJSON)
//	GET    /v1/streams/{id}                 status without refitting
//	DELETE /v1/streams/{id}                 close the stream
//	GET    /v1/streams                      list live stream ids
type API struct {
	Manager *Manager
	// Admit, when set, runs before every append; an error sheds the
	// request with a 429 envelope (internal/serve wires the serve.shed
	// fault point and overload control here).
	Admit func() error
}

// Mount attaches the streaming handlers to their routes of t.
func (a *API) Mount(t *httpapi.Table) {
	t.Handle(httpapi.StreamAppend, a.append)
	t.Handle(httpapi.StreamScore, a.score)
	t.Handle(httpapi.StreamStatus, a.status)
	t.Handle(httpapi.StreamDelete, a.delete)
	t.Handle(httpapi.StreamList, a.list)
	t.Handle(httpapi.StreamListSlash, a.list)
}

func (a *API) append(r *http.Request, body []byte) httpapi.Reply {
	if a.Admit != nil {
		if err := a.Admit(); err != nil {
			return httpapi.Errorf(http.StatusTooManyRequests, "stream appends shed: %v", err).Retry(time.Second)
		}
	}
	// The model is required on the stream's first append and optional
	// afterwards (when present it must match — and clients SHOULD send
	// it every time, so a gate failover to a fresh replica can recreate
	// the stream transparently).
	req, err := wire.DecodeAppend(body)
	if err != nil {
		return httpapi.Errorf(http.StatusBadRequest, "request body: %v", err)
	}
	res, err := a.Manager.Append(r.PathValue("id"), req.Model, req.Points, r.URL.Query().Get("score") != "")
	if err != nil {
		return errorReply(err)
	}
	return httpapi.JSON(res)
}

func (a *API) score(r *http.Request, _ []byte) httpapi.Reply {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") != "" {
		return a.watch(r, id)
	}
	ev, err := a.Manager.Score(id)
	if err != nil {
		return errorReply(err)
	}
	return httpapi.JSON(ev)
}

// watch streams one NDJSON score event per append until the client
// disconnects or the stream ends; the terminal event carries
// "final":true. Each line is flushed as written so early warnings reach
// slow readers immediately.
func (a *API) watch(r *http.Request, id string) httpapi.Reply {
	s, ok := a.Manager.Get(id)
	if !ok {
		return httpapi.Errorf(http.StatusNotFound, "unknown stream %q", id)
	}
	return httpapi.Lines(func(emit func(any) error) {
		final := ScoreEvent{Stream: id, Model: s.ModelName(), Final: true}
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
				if emit(ev) != nil {
					return
				}
				sent, lastSeq = true, ev.Seq
			case err != nil && errors.Is(err, ErrUnknownStream):
				// Deleted or evicted mid-watch: emit the terminal line.
				emit(final)
				return
			case err != nil && !errors.Is(err, ErrNotReady):
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-updated:
				if s.Closed() {
					emit(final)
					return
				}
			}
		}
	})
}

func (a *API) status(r *http.Request, _ []byte) httpapi.Reply {
	id := r.PathValue("id")
	s, ok := a.Manager.Get(id)
	if !ok {
		return httpapi.Errorf(http.StatusNotFound, "unknown stream %q", id)
	}
	return httpapi.JSON(s.Status())
}

func (a *API) delete(r *http.Request, _ []byte) httpapi.Reply {
	id := r.PathValue("id")
	if !a.Manager.Delete(id) {
		return httpapi.Errorf(http.StatusNotFound, "unknown stream %q", id)
	}
	return httpapi.JSON(map[string]any{"stream": id, "deleted": true})
}

func (a *API) list(*http.Request, []byte) httpapi.Reply {
	ids := a.Manager.IDs()
	return httpapi.JSON(map[string]any{"streams": ids, "active": len(ids)})
}

// errorReply maps the tier's sentinel errors onto the v1 envelope.
func errorReply(err error) *httpapi.Error {
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownStream):
		return httpapi.Errorf(http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrTooManyStreams):
		return httpapi.Errorf(http.StatusTooManyRequests, "%v", err).Retry(time.Second)
	case errors.Is(err, ErrModelMismatch), errors.Is(err, fda.ErrData):
		return httpapi.Errorf(http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrClosed):
		return httpapi.Errorf(http.StatusServiceUnavailable, "%v", err)
	default:
		// Not ready, a mapping or pipeline misconfiguration for this
		// stream's arity, a singular refit, etc.: the request decoded but
		// cannot be scored.
		return httpapi.Errorf(http.StatusUnprocessableEntity, "%v", err)
	}
}
