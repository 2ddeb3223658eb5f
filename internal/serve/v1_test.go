package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
)

// jobsStack is testStack plus a jobs manager, so the /v1/jobs routes are
// mounted too and every surface can be probed in one table.
func jobsStack(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	dir := t.TempDir()
	path, _, _ := saveModel(t, dir, "model.json", 11)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	pool := NewPool(PoolOptions{Workers: 2, Metrics: metrics})
	t.Cleanup(pool.Close)
	mgr, err := jobs.NewManager(jobs.Options{
		Runner: &JobRunner{Registry: reg, Pool: pool},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv, err := NewServer(Config{
		Registry: reg,
		Pool:     pool,
		Metrics:  metrics,
		Timeout:  10 * time.Second,
		Jobs:     mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// TestV1EnvelopeEverywhere walks every 4xx-producing corner of the v1
// surface — scoring, models, jobs, unknown routes — and requires the
// shared envelope with the right machine code on each.
func TestV1EnvelopeEverywhere(t *testing.T) {
	ts, _ := jobsStack(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"score without model", "POST", "/v1/score", `{"samples":[]}`, 400, httpapi.CodeBadRequest},
		{"score unknown model", "POST", "/v1/score?model=nope", `{"samples":[{"times":[0,1],"values":[[1,2],[3,4]]}]}`, 404, httpapi.CodeNotFound},
		{"score wrong method", "GET", "/v1/score?model=ecg", "", 405, httpapi.CodeMethodNotAllowed},
		{"score undecodable body", "POST", "/v1/score?model=ecg", "{", 400, httpapi.CodeBadRequest},
		{"reload wrong method", "DELETE", "/v1/reload?model=ecg", "", 405, httpapi.CodeMethodNotAllowed},
		{"models wrong method", "POST", "/v1/models", "", 405, httpapi.CodeMethodNotAllowed},
		{"unknown model info", "GET", "/v1/models/nope", "", 404, httpapi.CodeNotFound},
		// The retired colon-verb alias paths now answer an enveloped 4xx.
		{"alias unknown action", "POST", "/v1/models/ecg:frobnicate", "{}", 405, httpapi.CodeMethodNotAllowed},
		{"alias wrong method", "GET", "/v1/models/ecg:score", "", 404, httpapi.CodeNotFound},
		{"job submit wrong method", "GET", "/v1/jobs", "", 405, httpapi.CodeMethodNotAllowed},
		{"job submit without model", "POST", "/v1/jobs", `{"samples":[{"times":[0,1],"values":[[1,2],[3,4]]}]}`, 400, httpapi.CodeBadRequest},
		{"job submit unknown model", "POST", "/v1/jobs?model=nope", `{"samples":[{"times":[0,1],"values":[[1,2],[3,4]]}]}`, 404, httpapi.CodeNotFound},
		{"unknown job status", "GET", "/v1/jobs/j-nope", "", 404, httpapi.CodeNotFound},
		{"unknown job results", "GET", "/v1/jobs/j-nope/results", "", 404, httpapi.CodeNotFound},
		{"job wrong method", "PUT", "/v1/jobs/j-nope", "", 405, httpapi.CodeMethodNotAllowed},
		{"unknown route", "GET", "/v2/anything", "", 404, httpapi.CodeNotFound},
		{"root", "GET", "/", "", 404, httpapi.CodeNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			if c.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.status {
				t.Fatalf("%s %s = %d, want %d (body %s)", c.method, c.path, resp.StatusCode, c.status, raw)
			}
			var eb httpapi.ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("%s %s: not a v1 envelope (err %v, body %s)", c.method, c.path, err, raw)
			}
			if eb.Error.Code != c.code {
				t.Fatalf("%s %s: code %q, want %q", c.method, c.path, eb.Error.Code, c.code)
			}
			if eb.Error.Message == "" {
				t.Fatalf("%s %s: empty envelope message", c.method, c.path)
			}
		})
	}
}
