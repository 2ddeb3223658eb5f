package gate_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// answer sends one request and returns its status, Allow header and
// envelope (zero when the body is not one).
func answer(t *testing.T, method, url string, body []byte) (int, string, httpapi.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	json.Unmarshal(raw, &eb)
	return resp.StatusCode, resp.Header.Get("Allow"), eb
}

// TestGateModelInfo: the gate serves GET /v1/models/{name}, forwarded
// by a ring walk keyed by the model name, as a replica serves it.
func TestGateModelInfo(t *testing.T) {
	modelPath, _ := fitModelFile(t)
	h := bootGate(t, modelPath)
	resp, err := http.Get(h.base + "/v1/models/m0")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"name":"m0"`) {
		t.Fatalf("GET /v1/models/m0 through the gate = %d %s, want 200 with \"name\":\"m0\"", resp.StatusCode, raw)
	}
	if code, _, eb := answer(t, "GET", h.base+"/v1/models/zz-unknown", nil); code != http.StatusNotFound || !strings.Contains(eb.Error.Message, "unknown model") {
		t.Fatalf("unknown model info = %d %+v, want the replica's 404", code, eb)
	}
}

// TestGateBodyCap: the gate's one body cap holds on every route. At
// 4096 bytes, a 7 KB body answers 413 payload_too_large on /v1/jobs and
// on a stream append, and neither a job nor a stream is created.
func TestGateBodyCap(t *testing.T) {
	const maxBody = 4096
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath, func(c *gate.Config) { c.MaxBodyBytes = maxBody })
	var idx []int
	job := jsonScoreBody(t, d, idx)
	for len(job) < 7000 {
		idx = append(idx, len(idx))
		job = jsonScoreBody(t, d, idx)
	}
	s := d.Samples[0]
	add := streamChunkBody(t, s.Times, s.Values, 0, len(s.Times), "m0")
	// Trailing whitespace keeps the append valid.
	add = append(add, bytes.Repeat([]byte(" "), 7000-len(add))...)
	for name, b := range map[string][]byte{"job": job, "append": add} {
		if len(b) <= maxBody || len(b) > 2*maxBody {
			t.Fatalf("%s body is %d bytes, want a 7 KB body over the %d-byte cap", name, len(b), maxBody)
		}
	}
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"job", "/v1/jobs?model=m0", job},
		{"append", "/v1/streams/big/append", add},
	} {
		code, _, eb := answer(t, "POST", h.base+c.path, c.body)
		if code != http.StatusRequestEntityTooLarge || eb.Error.Code != httpapi.CodeTooLarge {
			t.Errorf("%s of %d bytes = %d %+v, want 413 %s", c.name, len(c.body), code, eb, httpapi.CodeTooLarge)
		}
	}
	if _, ok := h.g.Jobs().Get("j000001"); ok {
		t.Error("the refused submit created a job")
	}
	if code, _, _ := answer(t, "GET", h.base+"/v1/streams/big", nil); code != http.StatusNotFound {
		t.Errorf("the refused append left a stream: status %d, want 404", code)
	}
}

// bootFullReplica is a replica with jobs and streams on, serving m0.
func bootFullReplica(t *testing.T, modelPath string) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.Load("m0", modelPath); err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.PoolOptions{Workers: 1})
	t.Cleanup(pool.Close)
	jobsMgr, err := jobs.NewManager(jobs.Options{Runner: &serve.JobRunner{Registry: reg, Pool: pool}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jobsMgr.Close)
	streams, err := serve.NewStreamManager(reg, nil, serve.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(streams.Close)
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool, Jobs: jobsMgr, Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRouteParity: every route of the shared v1 list that a replica
// with jobs and streams serves, the gate (jobs on) serves too, and a
// wrong method gets the same 405 and Allow header from both tiers. Only
// /v1/topology is the gate's own. A route is served unless it answers
// the table's 404 for an unknown path.
func TestRouteParity(t *testing.T) {
	modelPath, _ := fitModelFile(t)
	h := bootGate(t, modelPath)
	replica := bootFullReplica(t, modelPath)
	concrete := strings.NewReplacer("{name}", "m0", "{id}", "parity", "{$}", "")
	served := func(base string, rt httpapi.Route) bool {
		code, _, eb := answer(t, rt.Method, base+concrete.Replace(rt.Pattern), nil)
		return code != http.StatusNotFound || !strings.HasPrefix(eb.Error.Message, "no such route")
	}
	for _, rt := range httpapi.Routes {
		path := concrete.Replace(rt.Pattern)
		onReplica, onGate := served(replica.URL, rt), served(h.base, rt)
		switch {
		case rt == httpapi.Topology:
			if onReplica || !onGate {
				t.Errorf("%s %s: replica serves it %v, gate %v; want the gate only", rt.Method, rt.Pattern, onReplica, onGate)
			}
			continue
		case !onReplica:
			t.Errorf("%s %s: a replica with jobs and streams does not serve it", rt.Method, rt.Pattern)
			continue
		case !onGate:
			t.Errorf("%s %s: a replica serves it, the gate answers no such route", rt.Method, rt.Pattern)
			continue
		}
		rc, rallow, reb := answer(t, "PATCH", replica.URL+path, nil)
		gc, gallow, geb := answer(t, "PATCH", h.base+path, nil)
		if rc != http.StatusMethodNotAllowed || gc != http.StatusMethodNotAllowed ||
			reb.Error.Code != httpapi.CodeMethodNotAllowed || geb.Error.Code != httpapi.CodeMethodNotAllowed ||
			rallow == "" || rallow != gallow {
			t.Errorf("PATCH %s: replica %d Allow %q, gate %d Allow %q; want the same 405", path, rc, rallow, gc, gallow)
		}
	}
}
