package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/wire"
)

// API holds the jobs handlers. serve and gate both mount it, so the
// bulk-scoring surface is identical whether a client talks to a single
// replica or to the front tier:
//
//	POST   /v1/jobs               submit curves (JSON or wire frame) → 202 + handle
//	GET    /v1/jobs/{id}          poll the job snapshot
//	GET    /v1/jobs/{id}/results  stream finished scores as resumable NDJSON
//	DELETE /v1/jobs/{id}          cancel
type API struct {
	Manager *Manager
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

// Mount attaches the jobs handlers to their routes of t.
func (a *API) Mount(t *httpapi.Table) {
	t.Handle(httpapi.JobSubmit, a.submit)
	t.Handle(httpapi.JobStatus, a.status)
	t.Handle(httpapi.JobCancel, a.cancel)
	t.Handle(httpapi.JobResults, a.results)
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

// submit accepts a job. The body is a curve body of either codec
// (wire.DecodeBody). A JSON body may name the model and chunk size
// itself; otherwise, and always for a frame, which has no room for
// them, they ride the query string.
func (a *API) submit(r *http.Request, raw []byte) httpapi.Reply {
	body, err := wire.DecodeBody(r.Header.Get("Content-Type"), raw)
	if err != nil {
		return httpapi.Errorf(http.StatusBadRequest, "decode body: %v", err)
	}
	model, chunk, ds := body.Model, body.Chunk, body.Dataset
	if model == "" {
		model = r.URL.Query().Get("model")
	}
	if cs := r.URL.Query().Get("chunk"); chunk == 0 && cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			return httpapi.Errorf(http.StatusBadRequest, "bad chunk %q", cs)
		}
		chunk = n
	}
	if model == "" {
		return httpapi.Errorf(http.StatusBadRequest, "missing model (body field or ?model=)")
	}
	if len(ds.Samples) == 0 {
		return httpapi.Errorf(http.StatusBadRequest, "empty dataset")
	}
	if a.CheckModel != nil {
		if err := a.CheckModel(model); err != nil {
			return httpapi.Errorf(http.StatusNotFound, "unknown model %q", model)
		}
	}
	if a.Validate != nil {
		if err := a.Validate(ds); err != nil {
			return httpapi.Errorf(http.StatusBadRequest, "%v", err)
		}
	}
	j, err := a.Manager.Submit(model, ds, chunk)
	switch {
	case errors.Is(err, ErrTooManyJobs):
		return httpapi.Errorf(http.StatusTooManyRequests, "job table full, retry later").Retry(2 * time.Second)
	case errors.Is(err, ErrClosed):
		return httpapi.Errorf(http.StatusServiceUnavailable, "server shutting down")
	case err != nil:
		return httpapi.Errorf(http.StatusInternalServerError, "submit: %v", err)
	}
	st := j.Status()
	return httpapi.Accepted("/v1/jobs/"+j.ID(), submitResponse{
		Job:        j.ID(),
		Samples:    st.Samples,
		Chunk:      st.ChunkSize,
		StatusURL:  "/v1/jobs/" + j.ID(),
		ResultsURL: "/v1/jobs/" + j.ID() + "/results",
	})
}

// job resolves {id}, or answers the 404.
func (a *API) job(r *http.Request) (*Job, *httpapi.Error) {
	id := r.PathValue("id")
	j, ok := a.Manager.Get(id)
	if !ok {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown job %q", id)
	}
	return j, nil
}

func (a *API) status(r *http.Request, _ []byte) httpapi.Reply {
	j, err := a.job(r)
	if err != nil {
		return err
	}
	return httpapi.JSON(j.Status())
}

func (a *API) cancel(r *http.Request, _ []byte) httpapi.Reply {
	j, err := a.job(r)
	if err != nil {
		return err
	}
	j.Cancel()
	return httpapi.JSON(map[string]string{"job": j.ID(), "state": "cancelling"})
}

// results streams final scores as NDJSON from ?cursor= (default 0):
// lines of {"start","scores"} in sample order, then one terminal
// {"done":true,...} line. The cursor makes the stream resumable — a
// client that lost its connection after absorbing N scores reconnects
// with ?cursor=N and misses nothing, duplicates nothing.
func (a *API) results(r *http.Request, _ []byte) httpapi.Reply {
	j, jerr := a.job(r)
	if jerr != nil {
		return jerr
	}
	cursor := 0
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			return httpapi.Errorf(http.StatusBadRequest, "bad cursor %q", cs)
		}
		cursor = n
	}
	return httpapi.Lines(func(emit func(any) error) {
		for {
			vals, next, final, err := j.WaitResults(r.Context(), cursor)
			if err != nil {
				if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
					// Client gone; nothing useful to write.
					return
				}
				st := j.Status()
				emit(ResultEnd{Done: true, State: st.State, Samples: st.Samples,
					Retries: st.Retries, Error: firstLine(err.Error())})
				return
			}
			for off := 0; off < len(vals); off += maxLineScores {
				end := min(off+maxLineScores, len(vals))
				if emit(ResultLine{Start: cursor + off, Scores: vals[off:end]}) != nil {
					return
				}
			}
			cursor = next
			if final {
				st := j.Status()
				emit(ResultEnd{Done: true, State: st.State, Samples: st.Samples, Retries: st.Retries})
				return
			}
		}
	})
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
