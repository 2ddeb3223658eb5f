package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Breaker.Allow while the circuit is open: the
// upstream has failed enough times in a row that sending more traffic
// would only prolong the outage.
var ErrOpen = errors.New("resilience: circuit open")

// State is the circuit-breaker state.
type State int

const (
	// Closed passes every request through (the healthy state).
	Closed State = iota
	// Open fast-fails every request until the cooldown elapses.
	Open
	// HalfOpen lets a single probe request through; its outcome decides
	// between Closed and another Open period.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker. Threshold failures
// in a row open the circuit; after Cooldown one probe is let through,
// and its success closes the circuit again. The zero value is not
// usable — use NewBreaker.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock (tests)

	state    State
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker returns a closed breaker. threshold <= 0 means 5
// consecutive failures; cooldown <= 0 means 1s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. It returns ErrOpen while
// the circuit is open (or while another half-open probe is in flight);
// a nil return must be followed by exactly one Success, Failure or
// Release call with the request's outcome.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrOpen
		}
		b.state = HalfOpen
		b.probing = true
		return nil
	default: // HalfOpen
		if b.probing {
			return ErrOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a request that reached the upstream and got a
// non-failure answer; it closes the circuit and clears the failure run.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed request. The Threshold-th consecutive failure
// — or any failed half-open probe — opens the circuit.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == HalfOpen || b.fails >= b.threshold {
		b.state = Open
		b.openedAt = b.now()
		b.probing = false
	}
}

// Release records a request its caller cancelled before an answer: no
// verdict on the upstream, so the failure run and the state stay as
// they are, and a half-open probe's slot is freed for the next request.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State returns the current state (tests and observability).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
