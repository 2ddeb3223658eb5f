package resilience

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// testBudget builds a budget with an injectable frozen clock so the
// arithmetic tests are deterministic.
func testBudget(remaining time.Duration) *Budget {
	anchor := time.Unix(1000, 0)
	return &Budget{deadline: anchor.Add(remaining), now: func() time.Time { return anchor }}
}

func TestBudgetHeaderRoundTrip(t *testing.T) {
	b := testBudget(750 * time.Millisecond)
	if got := b.HeaderValue(); got != "750" {
		t.Fatalf("HeaderValue = %q, want 750", got)
	}
	h := http.Header{}
	b.SetHeader(h)
	got, err := BudgetFromHeader(h)
	if err != nil || got == nil {
		t.Fatalf("BudgetFromHeader = (%v, %v), want a budget", got, err)
	}
	if r := got.Remaining(); r < 600*time.Millisecond || r > 750*time.Millisecond {
		t.Fatalf("re-anchored remaining = %v, want ≈750ms", r)
	}
}

func TestBudgetHeaderValueClampsAtOneMs(t *testing.T) {
	// An almost-spent (or just-expired) budget must still serialize to a
	// valid positive value, never to "0" or a negative the next hop would
	// reject as malformed.
	for _, rem := range []time.Duration{500 * time.Microsecond, 0, -time.Second} {
		if got := testBudget(rem).HeaderValue(); got != "1" {
			t.Fatalf("HeaderValue(remaining=%v) = %q, want clamp to 1", rem, got)
		}
	}
}

func TestBudgetFromHeaderAbsent(t *testing.T) {
	b, err := BudgetFromHeader(http.Header{})
	if b != nil || err != nil {
		t.Fatalf("absent header = (%v, %v), want (nil, nil)", b, err)
	}
}

func TestBudgetFromHeaderMalformed(t *testing.T) {
	for _, v := range []string{"0", "-5", "abc", "1.5", "1e3", " 7", "99999999999999999999"} {
		h := http.Header{}
		h.Set(DeadlineHeader, v)
		if _, err := BudgetFromHeader(h); err == nil {
			t.Fatalf("header %q must be rejected", v)
		}
	}
}

func TestBudgetExpiryAndAfford(t *testing.T) {
	b := testBudget(100 * time.Millisecond)
	if b.Expired() {
		t.Fatal("100ms budget must not start expired")
	}
	if !b.CanAfford(50 * time.Millisecond) {
		t.Fatal("100ms budget must afford a 50ms attempt")
	}
	if b.CanAfford(150 * time.Millisecond) {
		t.Fatal("100ms budget must not afford a 150ms attempt")
	}
	if !testBudget(-time.Millisecond).Expired() {
		t.Fatal("negative remaining must report expired")
	}
}

func TestBudgetAttemptP99IsWorstCaseForSmallN(t *testing.T) {
	b := testBudget(time.Second)
	if got := b.AttemptP99(); got != 0 {
		t.Fatalf("AttemptP99 with no observations = %v, want 0", got)
	}
	b.Observe(10 * time.Millisecond)
	b.Observe(50 * time.Millisecond)
	b.Observe(30 * time.Millisecond)
	if got := b.AttemptP99(); got != 50*time.Millisecond {
		t.Fatalf("AttemptP99 = %v, want the worst attempt (50ms)", got)
	}
	if got := b.Attempts(); got != 3 {
		t.Fatalf("Attempts = %d, want 3", got)
	}
}

func TestBudgetContextCapsDeadline(t *testing.T) {
	b := NewBudget(80 * time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("budget context must carry a deadline")
	}
	if until := time.Until(dl); until > 80*time.Millisecond {
		t.Fatalf("deadline %v from now, want ≤ 80ms", until)
	}
	if BudgetFrom(ctx) != b {
		t.Fatal("budget context must carry the budget for BudgetFrom")
	}
}

// TestClientRetryAfterHintBeyondDeadlineFailsFast pins the budget/hint
// interplay: a server's Retry-After hint far beyond the remaining
// deadline must make the client return the 429 immediately — not sleep
// the hinted hour and blow past the caller's deadline.
func TestClientRetryAfterHintBeyondDeadlineFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3600")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	b := NewBudget(150 * time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	c := &Client{MaxAttempts: 4, Backoff: fastBackoff(), RetryBudget: NewRetryBudget(0, 0)}
	start := time.Now()
	resp, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatalf("held 429 must be returned, got error %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client slept %v toward a 3600s hint with a 150ms budget", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

// TestClientStopsWhenBudgetCannotCoverAttempt: with one slow observed
// attempt, the remaining budget can no longer cover delay + p99, so no
// second request is sent upstream.
func TestClientStopsWhenBudgetCannotCoverAttempt(t *testing.T) {
	held := 80 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(held)
		http.Error(w, "unavailable", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	b := NewBudget(120 * time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	c := &Client{MaxAttempts: 10, Backoff: fastBackoff()}
	resp, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatalf("held 500 must be returned, got error %v", err)
	}
	resp.Body.Close()
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (second attempt cannot fit ~%v in the rest of 120ms)", got, held)
	}
	if b.Attempts() != 1 {
		t.Fatalf("budget observed %d attempts, want 1", b.Attempts())
	}
}

// TestClientExpiredBudgetFailsBeforeFirstAttempt: a dead-on-arrival
// budget must not spend any upstream work at all.
func TestClientExpiredBudgetFailsBeforeFirstAttempt(t *testing.T) {
	ts, calls := flakyServer(t, 0, http.StatusOK)
	ctx := WithBudget(context.Background(), testBudget(-time.Millisecond))
	c := &Client{MaxAttempts: 4, Backoff: fastBackoff()}
	_, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("server saw %d calls, want 0", got)
	}
}

// TestClientStampsDeadlineHeader: every outgoing attempt must carry the
// remaining budget so the next hop can apply the same discipline.
func TestClientStampsDeadlineHeader(t *testing.T) {
	var seen atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(DeadlineHeader))
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	b := NewBudget(500 * time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	c := &Client{MaxAttempts: 1}
	resp, err := c.Do(ctx, http.MethodPost, ts.URL, "application/json", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, _ := seen.Load().(string)
	ms, err := strconv.Atoi(got)
	if err != nil || ms <= 0 || ms > 500 {
		t.Fatalf("upstream saw %s=%q, want a value in (0, 500]", DeadlineHeader, got)
	}
}

// TestHedgeSuppressedWhenBudgetCannotAffordAttempt: the speculative
// secondary is a latency optimisation, and is skipped when the observed
// attempt cost no longer fits the remaining budget.
func TestHedgeSuppressedWhenBudgetCannotAffordAttempt(t *testing.T) {
	prim, _ := legServer(t, "primary", 60*time.Millisecond)
	sec, secHits := legServer(t, "secondary", 0)
	b := NewBudget(150 * time.Millisecond)
	b.Observe(200 * time.Millisecond) // a prior attempt cost more than the whole budget
	ctx := WithBudget(context.Background(), b)
	h := &Hedge{Delay: 10 * time.Millisecond}
	resp, leg, err := h.Do(ctx, legCall(prim.URL), legCall(sec.URL))
	if err != nil || leg != Primary {
		t.Fatalf("leg=%v err=%v, want the primary to win unhedged", leg, err)
	}
	readBody(t, resp)
	// The hedge timer (10ms) fired well before the primary answered
	// (60ms); without suppression the secondary would have been hit.
	if got := secHits.Load(); got != 0 {
		t.Fatalf("secondary saw %d requests, want 0 (suppressed by budget)", got)
	}
}

// TestHedgeFastFailoverStillRunsWithBudgetLeft: failover after a dead
// primary is the request's only chance and must not be suppressed while
// any budget remains, even when the cost estimate looks unaffordable.
func TestHedgeFastFailoverStillRunsWithBudgetLeft(t *testing.T) {
	sec, _ := legServer(t, "secondary", 0)
	b := NewBudget(500 * time.Millisecond)
	b.Observe(10 * time.Second) // estimate says unaffordable; failover ignores it
	ctx := WithBudget(context.Background(), b)
	h := &Hedge{Delay: 10 * time.Second}
	resp, leg, err := h.Do(ctx,
		func(context.Context) (*http.Response, error) { return nil, errors.New("primary down") },
		legCall(sec.URL),
	)
	if err != nil || leg != Secondary {
		t.Fatalf("leg=%v err=%v, want secondary failover", leg, err)
	}
	if got := readBody(t, resp); got != "secondary" {
		t.Fatalf("body = %q", got)
	}
}

// TestHedgeFastFailoverSkippedWhenExpired: once the budget is spent the
// failover would be wasted upstream work.
func TestHedgeFastFailoverSkippedWhenExpired(t *testing.T) {
	sec, secHits := legServer(t, "secondary", 0)
	primErr := errors.New("primary down")
	ctx := WithBudget(context.Background(), testBudget(-time.Millisecond))
	h := &Hedge{Delay: 10 * time.Second}
	_, _, err := h.Do(ctx,
		func(context.Context) (*http.Response, error) { return nil, primErr },
		legCall(sec.URL),
	)
	if !errors.Is(err, primErr) {
		t.Fatalf("err = %v, want the primary's error", err)
	}
	if got := secHits.Load(); got != 0 {
		t.Fatalf("secondary saw %d requests, want 0 (budget spent)", got)
	}
}
