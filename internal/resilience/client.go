package resilience

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client wraps an http.Client with retry, backoff, a retry budget, a
// circuit breaker and deadline awareness for scoring POSTs (JSON or the
// internal/wire binary frame) against mfodserve. Scoring is idempotent,
// so transient failures (connection errors, 429, 5xx) are safe to
// retry; definitive answers — including 4xx — are returned to the
// caller untouched.
//
// When the request context carries a *Budget (WithBudget) or a
// deadline, retries become deadline-aware: the client stops retrying —
// and never starts a backoff sleep — once the remaining time cannot
// cover the delay plus the observed p99 cost of prior attempts, because
// upstream work whose caller has already given up is pure waste. The
// remaining budget is stamped onto every outgoing request as
// DeadlineHeader so the hop downstream can apply the same discipline.
type Client struct {
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts is the total number of tries including the first;
	// 0 means 4.
	MaxAttempts int
	// Backoff shapes the delay between attempts; nil means defaults
	// (100ms base, ×2, 5s cap, 20% jitter).
	Backoff *Backoff
	// RetryBudget, when non-nil, bounds the global retry rate.
	RetryBudget *RetryBudget
	// Breaker, when non-nil, fast-fails while the upstream is down.
	Breaker *Breaker
}

// retryable reports whether a status code indicates a transient
// condition worth retrying.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfter parses a Retry-After header given in seconds; 0 when
// absent or unparseable (the HTTP-date form is not worth supporting for
// a CLI client).
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	s, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || s < 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// retain buffers a retryable response's (small) body in memory and
// closes the network body, so the connection returns to the keep-alive
// pool immediately and the response stays readable even after the
// request context that produced it is torn down.
func retain(resp *http.Response) *http.Response {
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(buf))
	return resp
}

// remainingIn returns the tighter of the context deadline and the
// budget's remaining time; ok is false when neither bounds the call.
func remainingIn(ctx context.Context, b *Budget) (time.Duration, bool) {
	remaining, ok := time.Duration(0), false
	if dl, has := ctx.Deadline(); has {
		remaining, ok = time.Until(dl), true
	}
	if b != nil {
		if r := b.Remaining(); !ok || r < remaining {
			remaining, ok = r, true
		}
	}
	return remaining, ok
}

// Do sends body to url, retrying transient failures with backoff until
// an attempt gets a definitive answer, the attempt budget, retry budget
// or deadline budget runs out, the breaker opens, or ctx expires. A
// non-empty accept sets the Accept header, for callers negotiating a
// binary response representation (e.g. the gate asking a replica for
// a partial-scores frame instead of JSON). On success the caller owns
// resp.Body.
//
// Retry-stop semantics: when retrying stops while the client holds a
// retryable HTTP response (a 429 or 5xx the server actually sent), that
// response is returned with a nil error — honest backpressure like a
// 429 with Retry-After is the caller's to see and relay, not to
// launder into a synthetic failure. An error is returned only when
// there is no server answer at all: transport failures, an open
// breaker, or a budget that expired before the first attempt.
func (c *Client) Do(ctx context.Context, method, url, contentType, accept string, body []byte) (*http.Response, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	backoff := c.Backoff
	if backoff == nil {
		backoff = &Backoff{}
	}
	if c.RetryBudget != nil {
		c.RetryBudget.Deposit()
	}
	budget := BudgetFrom(ctx)
	if budget != nil && budget.Expired() {
		return nil, fmt.Errorf("%w before the first attempt", ErrBudgetExhausted)
	}
	var lastErr error
	var lastResp *http.Response // retained retryable response; returned on retry-stop
	var hint time.Duration      // server-provided Retry-After from the last attempt
	// fail resolves a retry-stop: prefer the server's own last answer.
	fail := func(err error) (*http.Response, error) {
		if lastResp != nil {
			return lastResp, nil
		}
		return nil, err
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := backoff.Delay(attempt - 1)
			if hint > delay {
				delay = hint
			}
			// Deadline-aware stop: never start a sleep (or an attempt) the
			// remaining time cannot cover. The attempt cost estimate is the
			// p99 of attempts observed so far on this request's budget.
			var est time.Duration
			if budget != nil {
				est = budget.AttemptP99()
			}
			if remaining, ok := remainingIn(ctx, budget); ok && delay+est >= remaining {
				return fail(fmt.Errorf("%w: %v remaining cannot cover retry (delay %v + attempt ~%v), last: %v",
					ErrBudgetExhausted, remaining.Truncate(time.Millisecond), delay, est, lastErr))
			}
			if c.RetryBudget != nil && !c.RetryBudget.Withdraw() {
				return fail(fmt.Errorf("resilience: retry budget exhausted after: %w", lastErr))
			}
			select {
			case <-ctx.Done():
				return fail(ctx.Err())
			case <-time.After(delay):
			}
		}
		if c.Breaker != nil {
			if err := c.Breaker.Allow(); err != nil {
				// An open breaker means the replica is down; a stale 5xx from
				// it would mislead the hedge layer into skipping failover.
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
				}
				return nil, err
			}
		}
		// The previous retryable answer is superseded the moment a new
		// attempt launches.
		lastResp = nil
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if budget != nil {
			budget.SetHeader(req.Header)
		}
		attemptStart := time.Now()
		resp, err := httpc.Do(req)
		if budget != nil {
			budget.Observe(time.Since(attemptStart))
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The caller gave up (a hedge's losing leg, a client that
				// went away): no verdict on the upstream, nothing to retry.
				if c.Breaker != nil {
					c.Breaker.Release()
				}
				return nil, err
			}
			if c.Breaker != nil {
				c.Breaker.Failure()
			}
			lastErr, hint = err, 0
			continue
		}
		if retryable(resp.StatusCode) {
			if c.Breaker != nil {
				if resp.StatusCode == http.StatusTooManyRequests {
					// A shed is proof of life, not an outage: opening the
					// circuit on 429s would convert overload into hard
					// failure for everyone behind this client.
					c.Breaker.Success()
				} else {
					c.Breaker.Failure()
				}
			}
			lastErr = fmt.Errorf("resilience: server returned %s", resp.Status)
			hint = retryAfter(resp)
			lastResp = retain(resp)
			continue
		}
		// Definitive answer (2xx–4xx): the upstream is alive.
		if c.Breaker != nil {
			c.Breaker.Success()
		}
		return resp, nil
	}
	return fail(fmt.Errorf("resilience: %d attempts failed, last: %w", attempts, lastErr))
}
