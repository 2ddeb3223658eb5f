package gate_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gate"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/wire"
)

// gateOver assembles a gate in front of the given replica URLs (keyed
// r1..r3 by writeTopology) without a health prober — every replica
// routes as up, so tests control failure modes purely through the
// replica handlers.
func gateOver(t *testing.T, urls map[string]string, tweak func(*gate.Config)) (*gate.Gate, string, *gate.Metrics) {
	t.Helper()
	topoPath := filepath.Join(t.TempDir(), "topology.json")
	writeTopology(t, topoPath, urls)
	table, err := gate.LoadTable(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gate.Config{
		Table:      table,
		Health:     &gate.Health{},
		Metrics:    gate.NewMetrics(),
		HedgeDelay: 15 * time.Millisecond,
		Timeout:    10 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	g, err := gate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	return g, front.URL, cfg.Metrics
}

// scoreReq POSTs a scoring request with an optional deadline header and
// returns the response (body closed, Retry-After preserved).
func scoreReq(t *testing.T, base, model, deadlineMs string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/score?model="+model, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs != "" {
		req.Header.Set(resilience.DeadlineHeader, deadlineMs)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp
}

// metricValue extracts a plain counter/gauge value from an exposition.
func metricValue(t *testing.T, exposition, name string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("metric %s has non-integer value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("metric %s absent from exposition:\n%s", name, exposition)
	return 0
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestGateDeadlineHeaderRejected400(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
	}))
	t.Cleanup(stub.Close)
	_, base, _ := gateOver(t, map[string]string{"r1": stub.URL}, nil)

	for _, v := range []string{"abc", "0", "-5", "1.5"} {
		if resp := scoreReq(t, base, "m0", v, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("header %q: status = %d, want 400", v, resp.StatusCode)
		}
	}
	// The fault point forces the same reject path with a valid header.
	faultinject.Arm(gate.FaultBudgetInbound, faultinject.Fault{
		Err: faultinject.Injected(gate.FaultBudgetInbound), Times: 1,
	})
	if resp := scoreReq(t, base, "m0", "5000", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fault-forced parse: status = %d, want 400", resp.StatusCode)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("rejected requests reached upstream %d times; the budget check must run first", got)
	}
	if m := scrape(t, base); !strings.Contains(m, "mfodgate_deadline_rejected_total 5") {
		t.Fatalf("metrics missing the rejected counter:\n%s", m)
	}
}

func TestGateStampsDefaultBudgetUpstream(t *testing.T) {
	var seen atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(resilience.DeadlineHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"scores":[0.5]}`))
	}))
	t.Cleanup(stub.Close)
	_, base, _ := gateOver(t, map[string]string{"r1": stub.URL}, func(c *gate.Config) {
		c.Timeout = 5 * time.Second
	})
	if resp := scoreReq(t, base, "m0", "", []byte(`{"samples":[]}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	// No inbound deadline: the gate's own timeout becomes the edge budget
	// and every upstream hop must see it on the wire.
	v, _ := seen.Load().(string)
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Fatalf("upstream %s = %q, want milliseconds in (0, 5000]", resilience.DeadlineHeader, v)
	}
}

// TestGateDeadlineStopsUpstreamRetries is the wasted-work guarantee at
// the gate: once the propagated client deadline passes, not a single
// further attempt leaves for the fleet — no retry, no hedge leg.
func TestGateDeadlineStopsUpstreamRetries(t *testing.T) {
	var hits atomic.Int64
	var lastHit atomic.Int64
	fail := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		lastHit.Store(time.Now().UnixNano())
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	r1 := httptest.NewServer(fail)
	r2 := httptest.NewServer(fail)
	t.Cleanup(r1.Close)
	t.Cleanup(r2.Close)
	_, base, _ := gateOver(t, map[string]string{"r1": r1.URL, "r2": r2.URL}, func(c *gate.Config) {
		c.Attempts = 4
		c.HedgeDelay = 10 * time.Millisecond
	})

	start := time.Now()
	resp := scoreReq(t, base, "m0", "150", []byte(`{"samples":[]}`))
	if resp.StatusCode < 500 {
		t.Fatalf("status = %d, want a 5xx for a fleet that only fails", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("gate held a 150ms-deadline request for %v", elapsed)
	}
	deadline := start.Add(150 * time.Millisecond)

	// Let any stragglers land, then verify the world has gone quiet.
	time.Sleep(time.Until(deadline.Add(200 * time.Millisecond)))
	before := hits.Load()
	time.Sleep(300 * time.Millisecond)
	after := hits.Load()
	if before != after {
		t.Fatalf("upstream attempts kept coming after the deadline: %d → %d", before, after)
	}
	if after > 8 {
		t.Fatalf("%d upstream attempts for one request with Attempts=4 and two legs", after)
	}
	if last := time.Unix(0, lastHit.Load()); last.After(deadline.Add(50 * time.Millisecond)) {
		t.Fatalf("an attempt started %v after the client deadline", last.Sub(deadline))
	}
}

// TestGateBrownoutSuppressesHedgesAndDerivesRetryAfter walks the
// brownout lifecycle end to end: hedging works while healthy, a burst
// of failures latches brownout (metrics gauge flips), the next slow
// request runs un-hedged, and relayed backpressure advertises the
// pressure-derived Retry-After over the replica's own hint.
func TestGateBrownoutSuppressesHedgesAndDerivesRetryAfter(t *testing.T) {
	var mode atomic.Value // "slow" | "fail" | "backpressure"
	mode.Store("slow")
	var r2hits atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch mode.Load() {
		case "fail":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "backpressure":
			w.Header().Set("Retry-After", "1")
			http.Error(w, "full", http.StatusTooManyRequests)
		default:
			time.Sleep(120 * time.Millisecond)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"scores":[1]}`))
		}
	}))
	secondary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r2hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"scores":[2]}`))
	}))
	t.Cleanup(primary.Close)
	t.Cleanup(secondary.Close)

	g, base, _ := gateOver(t, map[string]string{"r1": primary.URL, "r2": secondary.URL}, func(c *gate.Config) {
		c.Attempts = 1
		c.HedgeDelay = 15 * time.Millisecond
		// Keep the breaker out of the picture: this test exercises the
		// brownout reaction to failures, not the per-replica circuit.
		c.BreakerThreshold = 100
		c.Brownout = gate.NewBrownout(gate.BrownoutOptions{
			Window: time.Minute, Buckets: 6, MinSamples: 3, EnterBadRate: 0.5,
		})
	})
	// A model whose primary is the scripted replica.
	model := ""
	for _, m := range modelNames {
		if p, s := g.Route(m); p == "r1" && s == "r2" {
			model = m
			break
		}
	}
	if model == "" {
		t.Fatal("no model routes r1-primary/r2-secondary")
	}
	body := []byte(`{"samples":[]}`)

	// Healthy: the slow primary loses to the hedged secondary.
	if resp := scoreReq(t, base, model, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy hedge status = %d", resp.StatusCode)
	}
	if r2hits.Load() == 0 {
		t.Fatal("secondary never raced the slow primary while healthy")
	}

	// Failure burst trips brownout.
	mode.Store("fail")
	for i := 0; i < 4; i++ {
		if resp := scoreReq(t, base, model, "", body); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing primary relayed %d, want the honest 500", resp.StatusCode)
		}
	}
	if m := scrape(t, base); !strings.Contains(m, "mfodgate_brownout 1") {
		t.Fatalf("brownout gauge not set after failure burst:\n%s", m)
	}

	// Under brownout the slow primary must answer alone: no secondary hit,
	// full primary latency, suppression counted.
	mode.Store("slow")
	hedged := r2hits.Load()
	start := time.Now()
	if resp := scoreReq(t, base, model, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("brownout request status = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("request finished in %v — a hedge must have fired under brownout", elapsed)
	}
	if got := r2hits.Load(); got != hedged {
		t.Fatalf("secondary hits %d → %d under brownout, want unchanged", hedged, got)
	}
	if got := metricValue(t, scrape(t, base), "mfodgate_hedges_suppressed_total"); got < 1 {
		t.Fatalf("mfodgate_hedges_suppressed_total = %d, want ≥ 1", got)
	}

	// Relayed backpressure: the replica says Retry-After 1, the pressure
	// window says the fleet is hurting — the client hears the larger hint.
	mode.Store("backpressure")
	resp := scoreReq(t, base, model, "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 2 {
		t.Fatalf("Retry-After = %q, want the pressure-derived hint > the replica's 1", resp.Header.Get("Retry-After"))
	}

	// Brownout suppresses speculation, never survival: with the primary
	// dead outright, the failover leg must still answer.
	failovers := r2hits.Load()
	primary.CloseClientConnections()
	primary.Close()
	if resp := scoreReq(t, base, model, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("failover under brownout status = %d, want 200 from the secondary", resp.StatusCode)
	}
	if got := r2hits.Load(); got != failovers+1 {
		t.Fatalf("secondary hits %d → %d, want one failover leg", failovers, got)
	}
}

// bootTinyReplica is bootReplica with a deliberately undersized pool so
// a concurrent burst overflows the queue and sheds.
func bootTinyReplica(t *testing.T, modelPath string) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	for _, name := range modelNames {
		if err := reg.Load(name, modelPath); err != nil {
			t.Fatal(err)
		}
	}
	pool := serve.NewPool(serve.PoolOptions{Workers: 1, QueueCap: 2})
	t.Cleanup(pool.Close)
	srv, err := serve.NewServer(serve.Config{
		Registry: reg,
		Pool:     pool,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestGateOverloadSheds429Never5xx is the overload acceptance check: a
// 2×-capacity burst through the gate over slow, tiny-queued replicas
// must divide into honest 200s and 429s carrying Retry-After — never a
// 5xx, because shed load is backpressure, not failure.
func TestGateOverloadSheds429Never5xx(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	modelPath, d := fitModelFile(t)
	urls := map[string]string{
		"r1": bootTinyReplica(t, modelPath).URL,
		"r2": bootTinyReplica(t, modelPath).URL,
		"r3": bootTinyReplica(t, modelPath).URL,
	}
	_, base, _ := gateOver(t, urls, func(c *gate.Config) {
		c.HedgeDelay = 30 * time.Millisecond
	})
	// Every job stalls 25ms: three workers fleet-wide,
	// so 64 concurrent requests are far past capacity.
	faultinject.Arm(serve.FaultBatch, faultinject.Fault{Delay: 25 * time.Millisecond})

	body := wireScoreBody(t, d, []int{0})
	codes := make(chan int, 64)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				model := modelNames[(w+i)%len(modelNames)]
				req, err := http.NewRequest(http.MethodPost, base+"/v1/score?model="+model, bytes.NewReader(body))
				if err != nil {
					codes <- -1
					return
				}
				req.Header.Set("Content-Type", wire.ContentType)
				req.Header.Set(resilience.DeadlineHeader, "8000")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					codes <- -1
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
						codes <- -2
					}
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}(w)
	}
	wg.Wait()
	close(codes)

	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[-1] > 0 {
		t.Fatalf("%d transport errors during the burst", counts[-1])
	}
	if counts[-2] > 0 {
		t.Fatalf("%d shed responses missing a Retry-After hint", counts[-2])
	}
	for code, n := range counts {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("%d responses with status %d; overload must yield only 200 or 429", n, code)
		}
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatal("a 2x-capacity burst shed nothing — the queue bound is not biting")
	}
	if counts[http.StatusOK] == 0 {
		t.Fatal("everything shed — no goodput at all under overload")
	}
}
