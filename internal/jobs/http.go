package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/wire"
)

// API mounts the jobs endpoints on a mux. serve and gate both embed it,
// so the bulk-scoring surface is identical whether a client talks to a
// single replica or to the front tier:
//
//	POST   /v1/jobs               submit curves (JSON or wire frame) → 202 + handle
//	GET    /v1/jobs/{id}          poll the job snapshot
//	GET    /v1/jobs/{id}/results  stream finished scores as resumable NDJSON
//	DELETE /v1/jobs/{id}          cancel
type API struct {
	Manager *Manager
	// MaxBodyBytes caps the submit body; 0 means 256 MiB (bulk jobs are
	// the whole point — the interactive cap would defeat them).
	MaxBodyBytes int64
	// Validate, when non-nil, vets the decoded dataset before the job
	// is accepted; a ValidationError-style failure becomes a 400.
	Validate func(ds fda.Dataset) error
	// CheckModel, when non-nil, rejects unknown models at submit time
	// with a 404 instead of letting the first chunk fail the job.
	CheckModel func(name string) error
}

// maxLineScores bounds one NDJSON line so a stream resumed late does
// not serialize an arbitrarily large finished prefix into one line.
const maxLineScores = 4096

// Register mounts the endpoints. The method-less patterns catch
// wrong-method requests so they get the v1 envelope, not the mux's
// plain-text 405.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", a.handleSubmit)
	mux.HandleFunc("/v1/jobs", httpapi.MethodNotAllowed("POST"))
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleCancel)
	mux.HandleFunc("/v1/jobs/{id}", httpapi.MethodNotAllowed("GET, DELETE"))
	mux.HandleFunc("GET /v1/jobs/{id}/results", a.handleResults)
	mux.HandleFunc("/v1/jobs/{id}/results", httpapi.MethodNotAllowed("GET"))
}

// submitResponse is the 202 body: the handle plus the two URLs a client
// needs next.
type submitResponse struct {
	Job        string `json:"job"`
	Samples    int    `json:"samples"`
	Chunk      int    `json:"chunk"`
	StatusURL  string `json:"statusUrl"`
	ResultsURL string `json:"resultsUrl"`
}

// ResultLine is one NDJSON results line: a contiguous run of final
// scores starting at absolute sample index Start.
type ResultLine struct {
	Start  int       `json:"start"`
	Scores []float64 `json:"scores"`
}

// ResultEnd is the terminal NDJSON line of a results stream.
type ResultEnd struct {
	Done    bool   `json:"done"`
	State   State  `json:"state"`
	Samples int    `json:"samples"`
	Retries int    `json:"retries"`
	Error   string `json:"error,omitempty"`
}

// handleSubmit accepts a job. The body is a curve body of either codec
// (wire.DecodeBody). A JSON body may name the model and chunk size
// itself; otherwise, and always for a frame, which has no room for
// them, they ride the query string.
func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	maxBytes := a.MaxBodyBytes
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		httpapi.BodyError(w, err)
		return
	}
	body, err := wire.DecodeBody(r.Header.Get("Content-Type"), raw)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "decode body: %v", err)
		return
	}
	model, chunk, ds := body.Model, body.Chunk, body.Dataset
	if model == "" {
		model = r.URL.Query().Get("model")
	}
	if cs := r.URL.Query().Get("chunk"); chunk == 0 && cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			httpapi.Error(w, http.StatusBadRequest, "bad chunk %q", cs)
			return
		}
		chunk = n
	}
	if model == "" {
		httpapi.Error(w, http.StatusBadRequest, "missing model (body field or ?model=)")
		return
	}
	if len(ds.Samples) == 0 {
		httpapi.Error(w, http.StatusBadRequest, "empty dataset")
		return
	}
	if a.CheckModel != nil {
		if err := a.CheckModel(model); err != nil {
			httpapi.Error(w, http.StatusNotFound, "unknown model %q", model)
			return
		}
	}
	if a.Validate != nil {
		if err := a.Validate(ds); err != nil {
			httpapi.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	j, err := a.Manager.Submit(model, ds, chunk)
	switch {
	case errors.Is(err, ErrTooManyJobs):
		httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverloaded,
			2*time.Second, "job table full, retry later")
		return
	case errors.Is(err, ErrClosed):
		httpapi.Error(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		httpapi.Error(w, http.StatusInternalServerError, "submit: %v", err)
		return
	}
	st := j.Status()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(submitResponse{
		Job:        j.ID(),
		Samples:    st.Samples,
		Chunk:      st.ChunkSize,
		StatusURL:  "/v1/jobs/" + j.ID(),
		ResultsURL: "/v1/jobs/" + j.ID() + "/results",
	})
}

// job resolves {id} or writes the 404.
func (a *API) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := a.Manager.Get(id)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status())
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"job": j.ID(), "state": "cancelling"})
}

// handleResults streams final scores as NDJSON from ?cursor= (default
// 0): lines of {"start","scores"} in sample order, then one terminal
// {"done":true,...} line. The cursor makes the stream resumable — a
// client that lost its connection after absorbing N scores reconnects
// with ?cursor=N and misses nothing, duplicates nothing.
func (a *API) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	cursor := 0
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			httpapi.Error(w, http.StatusBadRequest, "bad cursor %q", cs)
			return
		}
		cursor = n
	}
	w.Header().Set("Content-Type", httpapi.NDJSONContentType)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		vals, next, final, err := j.WaitResults(r.Context(), cursor)
		if err != nil {
			st := j.Status()
			if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
				// Client gone; nothing useful to write.
				return
			}
			enc.Encode(ResultEnd{Done: true, State: st.State, Samples: st.Samples,
				Retries: st.Retries, Error: firstLine(err.Error())})
			flush()
			return
		}
		for off := 0; off < len(vals); off += maxLineScores {
			end := min(off+maxLineScores, len(vals))
			if err := enc.Encode(ResultLine{Start: cursor + off, Scores: vals[off:end]}); err != nil {
				return
			}
		}
		if len(vals) > 0 {
			flush()
		}
		cursor = next
		if final {
			st := j.Status()
			enc.Encode(ResultEnd{Done: true, State: st.State, Samples: st.Samples, Retries: st.Retries})
			flush()
			return
		}
	}
}

// firstLine trims an error message to its first line so the NDJSON
// terminal record stays one record.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ParseResultLine decodes one NDJSON results line for clients: either a
// score run or the terminal record.
func ParseResultLine(line []byte) (run *ResultLine, end *ResultEnd, err error) {
	// Decode into a superset so one pass distinguishes the two shapes.
	var v struct {
		Start   *int      `json:"start"`
		Scores  []float64 `json:"scores"`
		Done    bool      `json:"done"`
		State   State     `json:"state"`
		Samples int       `json:"samples"`
		Retries int       `json:"retries"`
		Error   string    `json:"error"`
	}
	if err := json.Unmarshal(line, &v); err != nil {
		return nil, nil, fmt.Errorf("jobs: bad results line: %w", err)
	}
	if v.Done {
		return nil, &ResultEnd{Done: true, State: v.State, Samples: v.Samples,
			Retries: v.Retries, Error: v.Error}, nil
	}
	if v.Start == nil {
		return nil, nil, errors.New("jobs: results line has neither start nor done")
	}
	return &ResultLine{Start: *v.Start, Scores: v.Scores}, nil, nil
}
