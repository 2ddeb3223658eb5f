package serve

import (
	"math"
	"sync"
	"time"
)

// aimdDecrease scales the limit on congestion.
const aimdDecrease = 0.75

// AIMDOptions configures the adaptive concurrency limiter.
type AIMDOptions struct {
	// Min is the floor of the limit; 0 means 1. The limiter never
	// collapses below Min, so progress is always possible.
	Min int
	// Max is the ceiling of the limit; 0 means 256.
	Max int
	// Target is the latency above which a request counts as congested;
	// 0 means 250ms.
	Target time.Duration
	// Cooldown rate-limits multiplicative decreases so one slow batch
	// (many in-flight requests observing the same congestion) costs one
	// cut, not limit-many; 0 means Target.
	Cooldown time.Duration
}

// AIMD is an additive-increase / multiplicative-decrease adaptive
// concurrency limiter for the scoring handler. The static queue bound
// (PoolOptions.QueueCap) protects memory; this limiter protects
// *latency*: when scoring slows down — bigger batches, cache-cold
// models, a replica sharing a box — the limit shrinks multiplicatively
// so load is shed early with an honest 429 + Retry-After instead of
// queueing everyone up to the timeout cliff. While latency stays under
// Target, each success grows the limit by 1/limit (one extra slot per
// round trip of the window), probing for headroom.
//
// All methods are safe for concurrent use.
type AIMD struct {
	opt AIMDOptions
	now func() time.Time // injectable clock (tests)

	mu           sync.Mutex
	limit        float64
	inflight     int
	lastDecrease time.Time
}

// NewAIMD returns a limiter starting at its Max (optimistic start: the
// first congestion signal cuts it down to the true capacity).
func NewAIMD(opt AIMDOptions) *AIMD {
	if opt.Min <= 0 {
		opt.Min = 1
	}
	if opt.Max <= 0 {
		opt.Max = 256
	}
	if opt.Max < opt.Min {
		opt.Max = opt.Min
	}
	if opt.Target <= 0 {
		opt.Target = 250 * time.Millisecond
	}
	if opt.Cooldown <= 0 {
		opt.Cooldown = opt.Target
	}
	return &AIMD{opt: opt, now: time.Now, limit: float64(opt.Max)}
}

// Acquire claims one concurrency slot, reporting false (shed the
// request) when the current limit is reached.
func (a *AIMD) Acquire() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight >= int(a.limit) {
		return false
	}
	a.inflight++
	return true
}

// Release returns a slot and feeds the control loop: a congested
// outcome (latency above Target, or a timeout/queue-full downstream)
// multiplies the limit by 0.75 — at most once per Cooldown —
// while a healthy one adds 1/limit, probing additively for headroom.
func (a *AIMD) Release(latency time.Duration, congested bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight > 0 {
		a.inflight--
	}
	if congested || latency > a.opt.Target {
		if now := a.now(); now.Sub(a.lastDecrease) >= a.opt.Cooldown {
			a.lastDecrease = now
			a.limit = math.Max(float64(a.opt.Min), a.limit*aimdDecrease)
		}
		return
	}
	if a.limit < float64(a.opt.Max) {
		a.limit = math.Min(float64(a.opt.Max), a.limit+1/math.Max(a.limit, 1))
	}
}

// Limit returns the current concurrency limit (whole slots).
func (a *AIMD) Limit() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.limit)
}

// Inflight returns the number of currently admitted requests.
func (a *AIMD) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
