// Package client is the one Go client for the mfod serving surface —
// a single replica (mfodserve) or the front tier (mfodgate), which
// expose the same v1 API. It folds together the pieces a correct
// caller otherwise assembles by hand: the resilience layer (retry,
// backoff, circuit breaker, deadline budget propagated via
// X-Mfod-Deadline-Ms), codec negotiation between JSON and the binary
// wire frame, the v1 error envelope, and the async bulk-scoring jobs
// API with resumable NDJSON result streaming.
//
// Synchronous scoring:
//
//	c := client.New(client.Options{BaseURL: "http://gate:9090", Codec: "wire"})
//	res, err := c.Score(ctx, "ecg", ds, 0)
//
// Bulk scoring:
//
//	job, err := c.SubmitJob(ctx, "ecg", bigDataset, 0)
//	scores, end, err := job.Collect(ctx)   // or job.Stream for incremental runs
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// Options configures a Client; only BaseURL is required.
type Options struct {
	// BaseURL is the root of an mfodserve or mfodgate instance, e.g.
	// "http://localhost:8080". A trailing slash is tolerated.
	BaseURL string
	// Codec picks the request encoding: "wire" (default — the compact
	// binary frame) or "json".
	Codec string
	// Timeout bounds one HTTP attempt; 0 means 30s.
	Timeout time.Duration
	// Attempts is the total tries per request including the first;
	// 0 means 4.
	Attempts int
	// Backoff is the base delay between retries; 0 means 100ms.
	Backoff time.Duration
	// BreakerThreshold opens the circuit after that many consecutive
	// failures; 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is the open-circuit probe interval; 0 means 1s.
	BreakerCooldown time.Duration
	// Seed makes retry jitter reproducible; 0 means 1.
	Seed int64
}

// Client talks v1 to one base URL. Safe for concurrent use.
type Client struct {
	opt  Options
	base string
	rc   *resilience.Client
	http *http.Client
}

// New builds a Client; invalid codecs surface on first use.
func New(opt Options) *Client {
	if opt.Codec == "" {
		opt.Codec = "wire"
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.Attempts <= 0 {
		opt.Attempts = 4
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 100 * time.Millisecond
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	httpc := &http.Client{Timeout: opt.Timeout}
	c := &Client{
		opt:  opt,
		base: strings.TrimSuffix(opt.BaseURL, "/"),
		http: httpc,
		rc: &resilience.Client{
			HTTP:        httpc,
			MaxAttempts: opt.Attempts,
			Backoff:     &resilience.Backoff{Base: opt.Backoff, Seed: opt.Seed},
			RetryBudget: resilience.NewRetryBudget(0, 0),
			Breaker:     resilience.NewBreaker(opt.BreakerThreshold, opt.BreakerCooldown),
		},
	}
	return c
}

// Explanation is one deviating grid region of an explained sample.
type Explanation struct {
	T float64 `json:"t"`
	Z float64 `json:"z"`
}

// ScoreResult is a synchronous scoring answer.
type ScoreResult struct {
	Scores       []float64       `json:"scores"`
	Explanations [][]Explanation `json:"explanations,omitempty"`
	ElapsedMs    float64         `json:"elapsedMs"`
}

// encodeBody renders curves under the configured codec. Both codecs
// carry float64 exactly, so scores come back bitwise identical either
// way; wire costs about half the bytes.
func (c *Client) encodeBody(ds fda.Dataset, explain int) (body []byte, contentType string, err error) {
	switch c.opt.Codec {
	case "wire":
		return wire.EncodeRequest(wire.Request{Dataset: ds, Explain: explain}), wire.ContentType, nil
	case "json":
		body, err = wire.EncodeJSON(wire.Body{Request: wire.Request{Dataset: ds, Explain: explain}})
		return body, "application/json", err
	default:
		return nil, "", fmt.Errorf("client: bad codec %q, want wire or json", c.opt.Codec)
	}
}

// apiError turns a non-2xx response into *httpapi.APIError.
func apiError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return httpapi.ParseError(resp.StatusCode, raw)
}

// Score scores ds against model synchronously via POST /v1/score.
// Transient failures (connection errors, 429, 5xx) are retried under
// backoff and the breaker; a definitive rejection comes back as
// *httpapi.APIError carrying the v1 envelope's code and message.
func (c *Client) Score(ctx context.Context, model string, ds fda.Dataset, explain int) (*ScoreResult, error) {
	body, contentType, err := c.encodeBody(ds, explain)
	if err != nil {
		return nil, err
	}
	resp, err := c.rc.Do(ctx, http.MethodPost, c.base+"/v1/score?model="+url.QueryEscape(model), contentType, "", body)
	if err != nil {
		return nil, fmt.Errorf("client: score: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out ScoreResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode score response: %w", err)
	}
	if len(out.Scores) != len(ds.Samples) {
		return nil, fmt.Errorf("client: %d scores for %d samples", len(out.Scores), len(ds.Samples))
	}
	return &out, nil
}

// Job is a handle on a submitted bulk-scoring job.
type Job struct {
	c *Client
	// ID is the server-assigned job id.
	ID string
	// Samples is the submitted curve count; Chunk the effective chunk size.
	Samples int
	Chunk   int

	resultsURL string
}

// SubmitJob submits ds for async bulk scoring via POST /v1/jobs and
// returns the job handle. chunk == 0 uses the server default.
func (c *Client) SubmitJob(ctx context.Context, model string, ds fda.Dataset, chunk int) (*Job, error) {
	body, contentType, err := c.encodeBody(ds, 0)
	if err != nil {
		return nil, err
	}
	u := c.base + "/v1/jobs?model=" + url.QueryEscape(model)
	if chunk > 0 {
		u += "&chunk=" + strconv.Itoa(chunk)
	}
	resp, err := c.rc.Do(ctx, http.MethodPost, u, contentType, "", body)
	if err != nil {
		return nil, fmt.Errorf("client: submit job: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var out struct {
		Job        string `json:"job"`
		Samples    int    `json:"samples"`
		Chunk      int    `json:"chunk"`
		ResultsURL string `json:"resultsUrl"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode submit response: %w", err)
	}
	if out.Job == "" {
		return nil, fmt.Errorf("client: submit response carries no job id")
	}
	return &Job{
		c: c, ID: out.Job, Samples: out.Samples, Chunk: out.Chunk,
		resultsURL: out.ResultsURL,
	}, nil
}

// streamAttempts bounds consecutive results-stream reconnects that make
// no forward progress; any received scores reset the counter, so a
// long job may reconnect arbitrarily often as long as it is advancing.
const streamAttempts = 4

// Stream follows the job's NDJSON results from cursor, invoking fn for
// every contiguous run of final scores (start is the absolute sample
// index of run[0]). The stream is resumable by construction: if the
// connection drops, Stream reconnects at the cursor it has already
// absorbed — no duplicated, no missing scores. It returns the job's
// terminal record once the server sends it, or the first error from fn.
func (j *Job) Stream(ctx context.Context, cursor int, fn func(start int, scores []float64) error) (*jobs.ResultEnd, error) {
	stalls := 0
	for {
		end, next, err := j.streamOnce(ctx, cursor, fn)
		if end != nil || err != nil {
			return end, err
		}
		// Disconnected mid-stream. Resume from what we absorbed.
		if next > cursor {
			stalls, cursor = 0, next
		} else {
			stalls++
			if stalls >= streamAttempts {
				return nil, fmt.Errorf("client: results stream stalled at cursor %d after %d attempts", cursor, stalls)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(j.c.opt.Backoff):
		}
	}
}

// streamOnce runs one results connection; (nil, cursor, nil) means the
// connection dropped before the terminal record and the caller should
// resume.
func (j *Job) streamOnce(ctx context.Context, cursor int, fn func(int, []float64) error) (*jobs.ResultEnd, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		j.c.base+j.resultsURL+"?cursor="+strconv.Itoa(cursor), nil)
	if err != nil {
		return nil, cursor, err
	}
	resp, err := j.c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, cursor, ctx.Err()
		}
		return nil, cursor, nil // transport drop: resumable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, cursor, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		run, end, err := jobs.ParseResultLine(line)
		if err != nil {
			return nil, cursor, err
		}
		if end != nil {
			return end, cursor, nil
		}
		if run.Start != cursor {
			return nil, cursor, fmt.Errorf("client: results line starts at %d, cursor is %d", run.Start, cursor)
		}
		if err := fn(run.Start, run.Scores); err != nil {
			return nil, cursor, err
		}
		cursor += len(run.Scores)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return nil, cursor, nil // dropped mid-read: resumable
	}
	return nil, cursor, ctx.Err()
}

// Collect streams the whole job to completion and returns the scores
// in sample order plus the terminal record. On a failed or cancelled
// job the partial scores collected so far accompany the error.
func (j *Job) Collect(ctx context.Context) ([]float64, *jobs.ResultEnd, error) {
	scores := make([]float64, 0, j.Samples)
	end, err := j.Stream(ctx, 0, func(start int, run []float64) error {
		scores = append(scores, run...)
		return nil
	})
	if err != nil {
		return scores, nil, err
	}
	if end.State != jobs.StateDone {
		return scores, end, fmt.Errorf("client: job %s ended %s: %s", j.ID, end.State, end.Error)
	}
	if len(scores) != end.Samples {
		return scores, end, fmt.Errorf("client: collected %d scores for %d samples", len(scores), end.Samples)
	}
	return scores, end, nil
}
