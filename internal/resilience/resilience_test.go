package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	mk := func() *Backoff {
		return &Backoff{Base: 100 * time.Millisecond, Jitter: 0.5, Seed: 9}
	}
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		da, db := a.Delay(0), b.Delay(0)
		if da != db {
			t.Fatalf("draw %d: same seed gave %v vs %v", i, da, db)
		}
		if da < 50*time.Millisecond || da > 100*time.Millisecond {
			t.Fatalf("draw %d: delay %v outside [50ms, 100ms]", i, da)
		}
	}
}

func TestRetryBudgetDepositWithdraw(t *testing.T) {
	b := NewRetryBudget(2, 0.5)
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("a full budget must allow burst retries")
	}
	if b.Withdraw() {
		t.Fatal("empty budget must forbid retries")
	}
	b.Deposit() // +0.5, still under one token
	if b.Withdraw() {
		t.Fatal("half a token must not buy a retry")
	}
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("a whole token must buy a retry")
	}
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("deposits must cap at burst: tokens = %g", got)
	}
}

func TestBreakerTransitions(t *testing.T) {
	br := NewBreaker(3, time.Minute)
	clock := time.Unix(1000, 0)
	br.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if err := br.Allow(); err != nil {
			t.Fatal(err)
		}
		br.Failure()
	}
	if br.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", br.State())
	}
	br.Allow()
	br.Failure() // third consecutive failure opens
	if br.State() != Open {
		t.Fatalf("state = %v, want open", br.State())
	}
	if err := br.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Allow = %v, want ErrOpen", err)
	}
	// Success between failures resets the run.
	br2 := NewBreaker(3, time.Minute)
	br2.Failure()
	br2.Failure()
	br2.Success()
	br2.Failure()
	br2.Failure()
	if br2.State() != Closed {
		t.Fatal("success must clear the consecutive-failure run")
	}

	// After the cooldown a single probe is allowed.
	clock = clock.Add(2 * time.Minute)
	if err := br.Allow(); err != nil {
		t.Fatalf("post-cooldown probe refused: %v", err)
	}
	if br.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", br.State())
	}
	if err := br.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe must be refused")
	}
	br.Failure() // failed probe re-opens
	if br.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", br.State())
	}
	clock = clock.Add(2 * time.Minute)
	br.Allow()
	br.Success()
	if br.State() != Closed {
		t.Fatalf("state after healthy probe = %v, want closed", br.State())
	}
	if s := br.State().String(); s != "closed" {
		t.Fatalf("String() = %q", s)
	}
}

// flakyServer fails the first n requests with code, then answers 200.
func flakyServer(t *testing.T, n int64, code int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "unavailable", code)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func fastBackoff() *Backoff {
	return &Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: -1}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	for _, code := range []int{http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		ts, calls := flakyServer(t, 2, code)
		c := &Client{MaxAttempts: 4, Backoff: fastBackoff()}
		resp, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", []byte(`{}`))
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("code %d: final status %d", code, resp.StatusCode)
		}
		if got := calls.Load(); got != 3 {
			t.Fatalf("code %d: server saw %d calls, want 3", code, got)
		}
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	ts, calls := flakyServer(t, 1<<30, http.StatusBadGateway)
	c := &Client{MaxAttempts: 3, Backoff: fastBackoff()}
	resp, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatalf("exhausted attempts must surface the server's last answer, got error %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want the final 502 relayed", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "unavailable") {
		t.Fatalf("retained body = %q, want the server's error text", body)
	}
}

func TestClientDoesNotRetryDefinitiveAnswers(t *testing.T) {
	ts, calls := flakyServer(t, 1<<30, http.StatusBadRequest) // 400 is not transient
	c := &Client{MaxAttempts: 4, Backoff: fastBackoff()}
	resp, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want the 400 passed through", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

func TestClientBreakerOpensAndFastFails(t *testing.T) {
	ts, calls := flakyServer(t, 1<<30, http.StatusInternalServerError)
	br := NewBreaker(2, time.Hour)
	c := &Client{MaxAttempts: 5, Backoff: fastBackoff(), Breaker: br}
	if _, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", nil); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen once the threshold is crossed", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (breaker cut the rest)", got)
	}
	// Circuit is open: the next call must not touch the network at all.
	if _, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", nil); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("open circuit leaked a request: %d calls", got)
	}
}

func TestClientRetryBudgetExhaustion(t *testing.T) {
	ts, calls := flakyServer(t, 1<<30, http.StatusInternalServerError)
	budget := NewRetryBudget(1, 0.0001)
	c := &Client{MaxAttempts: 10, Backoff: fastBackoff(), RetryBudget: budget}
	resp, err := c.Do(context.Background(), http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatalf("budget exhaustion with a held 500 must return it, got error %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	// 1 burst token: first attempt + one retry, then the budget is dry.
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

func TestClientDeadlineStopsBackoffEarly(t *testing.T) {
	// A context deadline far below the backoff delay must stop the retry
	// loop *before* sleeping, returning the server's last answer fast.
	ts, calls := flakyServer(t, 1<<30, http.StatusInternalServerError)
	c := &Client{MaxAttempts: 100, Backoff: &Backoff{Base: time.Hour, Jitter: -1}}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatalf("deadline stop with a held 500 must return it, got error %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry fits in the deadline)", got)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline check must run before the backoff sleep")
	}
}

func TestClientHonorsContextCancel(t *testing.T) {
	// With no held response (pure transport failure), cancellation mid-
	// backoff surfaces the context error.
	c := &Client{MaxAttempts: 100, Backoff: &Backoff{Base: time.Hour, Jitter: -1}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.Do(ctx, http.MethodPost, "http://127.0.0.1:1/score", "application/json", "", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation must interrupt the backoff sleep")
	}
}

// TestClientCancelIsNoBreakerFailure: a request its caller cancels
// mid-flight (a hedge's losing leg) says nothing about the upstream, so
// a threshold-1 breaker stays closed; and a cancelled half-open probe
// frees the probe slot instead of reopening the circuit.
func TestClientCancelIsNoBreakerFailure(t *testing.T) {
	arrived := make(chan struct{}, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	br := NewBreaker(1, time.Hour)
	c := &Client{MaxAttempts: 3, Backoff: fastBackoff(), Breaker: br}
	cancelled := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-arrived:
				cancel()
			case <-ctx.Done():
			}
		}()
		_, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
		return err
	}
	if err := cancelled(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if s := br.State(); s != Closed {
		t.Fatalf("breaker %v after a cancelled request, want closed", s)
	}

	clock := time.Now()
	br.now = func() time.Time { return clock }
	br.Failure()
	clock = clock.Add(2 * time.Hour)
	if err := cancelled(); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe err = %v, want Canceled", err)
	}
	if s := br.State(); s != HalfOpen {
		t.Fatalf("breaker %v after a cancelled probe, want half-open", s)
	}
	if err := br.Allow(); err != nil {
		t.Fatalf("the next request after a cancelled probe: %v, want a probe", err)
	}
}
