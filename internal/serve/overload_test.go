package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/resilience"
)

func TestAIMDAcquireUpToLimitThenSheds(t *testing.T) {
	a := NewAIMD(AIMDOptions{Min: 1, Max: 3})
	for i := 0; i < 3; i++ {
		if !a.Acquire() {
			t.Fatalf("acquire %d refused below the limit", i)
		}
	}
	if a.Acquire() {
		t.Fatal("acquire above the limit must shed")
	}
	if got := a.Inflight(); got != 3 {
		t.Fatalf("Inflight = %d, want 3", got)
	}
	a.Release(time.Millisecond, false)
	if !a.Acquire() {
		t.Fatal("a released slot must be acquirable again")
	}
}

func TestAIMDMultiplicativeDecreaseAndAdditiveRecovery(t *testing.T) {
	clock := time.Unix(1000, 0)
	a := NewAIMD(AIMDOptions{Min: 1, Max: 100, Target: 10 * time.Millisecond, Cooldown: time.Second})
	a.now = func() time.Time { return clock }
	if got := a.Limit(); got != 100 {
		t.Fatalf("start Limit = %d, want Max", got)
	}
	a.Acquire()
	a.Release(time.Second, false) // congested: over target
	if got := a.Limit(); got != 75 {
		t.Fatalf("Limit after decrease = %d, want 75", got)
	}
	// A burst of congested releases within the cooldown costs one cut,
	// not one per in-flight request.
	for i := 0; i < 10; i++ {
		a.Acquire()
		a.Release(time.Second, true)
	}
	if got := a.Limit(); got != 75 {
		t.Fatalf("Limit inside cooldown = %d, want still 75", got)
	}
	clock = clock.Add(2 * time.Second)
	a.Acquire()
	a.Release(time.Second, true)
	if got := a.Limit(); got != 56 {
		t.Fatalf("Limit after cooldown = %d, want 56", got)
	}
	// Healthy traffic probes back up additively (+1/limit per success).
	for i := 0; i < 60; i++ {
		a.Acquire()
		a.Release(time.Millisecond, false)
	}
	if got := a.Limit(); got != 57 {
		t.Fatalf("Limit after 60 healthy releases = %d, want 57", got)
	}
	// The floor holds no matter how congested things get.
	b := NewAIMD(AIMDOptions{Min: 2, Max: 4, Cooldown: time.Nanosecond})
	for i := 0; i < 50; i++ {
		b.Release(time.Second, true)
		time.Sleep(time.Microsecond)
	}
	if got := b.Limit(); got != 2 {
		t.Fatalf("Limit = %d, want the Min floor of 2", got)
	}
}

func TestServerDeadlineHeaderMalformed400(t *testing.T) {
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 41)
	for _, v := range []string{"abc", "0", "-20"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score?model=ecg",
			nil)
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(resilience.DeadlineHeader, v)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("header %q: status = %d, want 400", v, resp.StatusCode)
		}
		_ = ds
	}
}

func TestServerDeadlineHeaderCapsTimeout(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, _, pool, _, ds := testStack(t, PoolOptions{Workers: 1}, 42)
	// The batch stalls far beyond the propagated 50ms budget but far
	// below the server's own 10s timeout: only the budget can 504 this
	// quickly.
	faultinject.Arm(FaultBatch, faultinject.Fault{Delay: 400 * time.Millisecond})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score?model=ecg",
		bytes.NewReader(scoreBody(t, ds, []int{0}, 0)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(resilience.DeadlineHeader, "50")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget-capped request took %v", elapsed)
	}
	// The stalled worker eventually reaches the job and finds its waiter
	// gone — that's an eviction, not wasted scoring work.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Evicted() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if pool.Evicted() == 0 {
		t.Fatal("expired job was never evicted")
	}
	if got := pool.Wasted(); got != 0 {
		t.Fatalf("Wasted = %d, want 0 (job must be evicted before scoring)", got)
	}
}

func TestServerShedFaultPointForces429(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 43)
	faultinject.Arm(FaultShed, faultinject.Fault{Err: faultinject.Injected(FaultShed), Times: 1})
	resp, _ := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 forced by %s", resp.StatusCode, FaultShed)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// Disarmed after Times: 1 — the next request scores normally.
	resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status = %d, body %s", resp.StatusCode, body)
	}
}

func TestServerAdaptiveLimiterShedsWithDerivedRetryAfter(t *testing.T) {
	_, _, reg, pool, _, ds := testStack(t, PoolOptions{Workers: 1}, 44)
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	pool.testHook = func(*Job) {
		once.Do(func() { close(started); <-gate })
	}
	defer close(gate)
	lim := NewAIMD(AIMDOptions{Min: 1, Max: 1, Target: time.Minute})
	srv, err := NewServer(Config{
		Registry: reg, Pool: pool, Metrics: NewMetrics(),
		Timeout: 10 * time.Second, Limiter: lim,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := scoreBody(t, ds, []int{0}, 0)
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/score?model=ecg", "application/json", bytes.NewReader(body))
		firstDone <- resp.StatusCode
		resp.Body.Close()
	}()
	<-started // the first request holds the only concurrency slot
	resp, _ := postScore(t, ts.URL+"/v1/score?model=ecg", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want derived seconds in [1, 60]", resp.Header.Get("Retry-After"))
	}
	gate <- struct{}{}
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted request finished %d, want 200", code)
	}
}

func TestPoolRetryAfterDerivedFromDrainRate(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	if got := p.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter with no throughput data = %d, want 1", got)
	}
	p.rateMu.Lock()
	p.rateEWMA = 0.5 // one job per two seconds
	p.rateMu.Unlock()
	if got := p.RetryAfter(); got != 2 {
		t.Fatalf("RetryAfter at 0.5 jobs/s, empty queue = %d, want ceil(1/0.5)=2", got)
	}
	p.rateMu.Lock()
	p.rateEWMA = 0.001
	p.rateMu.Unlock()
	if got := p.RetryAfter(); got != 60 {
		t.Fatalf("RetryAfter must clamp at 60, got %d", got)
	}
}

func TestPoolCountsWastedWork(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	m, ds := newTestModel(t, 45)
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	// The delay fires *inside* the scoring call — after the liveness
	// checks — so the job completes only after its waiter's deadline.
	faultinject.Arm(core.FaultScore, faultinject.Fault{Delay: 150 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	j, err := p.Enqueue(ctx, m, ds.Subset([]int{0, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Wait(ctx); ok {
		t.Fatal("waiter must give up at its deadline")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Wasted() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.Wasted(); got != 1 {
		t.Fatalf("Wasted = %d, want 1 (scored after abandonment)", got)
	}
}

// A caller that cancels mid-score, long before its deadline — a hedge
// loser, a client that disconnected — is cancelled work, never wasted.
func TestPoolCountsCancelledWorkApartFromWasted(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	m, ds := newTestModel(t, 45)
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	faultinject.Arm(core.FaultScore, faultinject.Fault{Delay: 150 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Enqueue(ctx, m, ds.Subset([]int{0, 1}), 0); err != nil {
		t.Fatal(err)
	}
	// The fault counts its firing before it sleeps: once it has fired,
	// the worker is inside the scoring call, past every liveness check.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, fired := faultinject.Hits(core.FaultScore); fired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scoring never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	for p.Cancelled() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.Cancelled(); got != 1 {
		t.Fatalf("Cancelled = %d, want 1 (caller gave up before the deadline)", got)
	}
	if got := p.Wasted(); got != 0 {
		t.Fatalf("Wasted = %d, want 0: the job finished long before its deadline", got)
	}
}

// TestPoolDeadlineCountsOnPage scrapes a live replica after one
// evicted, one wasted and one cancelled job: the page reads the pool's
// own counts, so each family equals its Pool getter.
func TestPoolDeadlineCountsOnPage(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, reg, p, _, ds := testStack(t, PoolOptions{Workers: 1}, 46)
	m, _ := reg.Get("ecg")
	two := ds.Subset([]int{0, 1})

	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := p.Enqueue(dead, m, two, 0); err == nil {
		t.Fatal("a dead job was queued")
	}

	// The delay fires inside the scoring call, past every liveness
	// check: the first job outlives its 40 ms deadline (wasted), the
	// second is cancelled while it scores (cancelled).
	faultinject.Arm(core.FaultScore, faultinject.Fault{Delay: 150 * time.Millisecond})
	short, cancelShort := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancelShort()
	if _, err := p.Enqueue(short, m, two, 0); err != nil {
		t.Fatal(err)
	}
	long, cancelLong := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLong()
	if _, err := p.Enqueue(long, m, two, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, fired := faultinject.Hits(core.FaultScore); fired >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second job never started scoring")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLong()
	for p.Cancelled() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, c := range []struct {
		family string
		get    func() uint64
	}{
		{"mfod_evicted_total", p.Evicted},
		{"mfod_wasted_total", p.Wasted},
		{"mfod_cancelled_total", p.Cancelled},
	} {
		want := c.get()
		if want != 1 {
			t.Errorf("%s: the pool counts %d, want 1", c.family, want)
		}
		if line := fmt.Sprintf("\n%s %d\n", c.family, want); !strings.Contains(page, line) {
			t.Errorf("page lacks %q:\n%s", strings.TrimSpace(line), page)
		}
	}
}
