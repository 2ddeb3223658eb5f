package gate

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Health actively probes every replica of the current fleet and keeps a
// concurrently-readable up/down verdict per replica name. One probe
// round GETs each replica's /healthz through http.DefaultClient with a
// timeout of min(Interval, 1s); a replica is down after Threshold
// consecutive failures and up again after a single success, so a kill
// is noticed within about Threshold×Interval while a lone dropped probe
// does not flap routing.
//
// Replicas unknown to the health map (just added by a topology reload,
// not yet probed) route as up: optimistic until proven dead, because
// hedged failover already covers the first request that finds out.
type Health struct {
	// Interval between probe rounds; 0 means 2s.
	Interval time.Duration
	// Threshold is the consecutive-failure count that marks a replica
	// down; 0 means 2.
	Threshold int
	// OnChange, when non-nil, observes up/down transitions (logging,
	// metrics). Called from the probe goroutine.
	OnChange func(replica string, up bool)
	// Jitter spreads each probe wait uniformly over
	// [Interval·(1−Jitter), Interval·(1+Jitter)], so a fleet of gates
	// booted together (a rolling restart, a load test) does not probe
	// every replica in lockstep forever. The sequence is seeded from
	// the wall clock. 0 means 0.1; negative disables.
	Jitter float64

	mu    sync.Mutex
	fails map[string]int
	down  map[string]bool
}

// Up reports whether the named replica is currently believed healthy.
func (h *Health) Up(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[name]
}

// Snapshot returns the down-set — replica names currently believed
// dead — for the topology endpoint.
func (h *Health) Snapshot() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool, len(h.down))
	for n, d := range h.down {
		if d {
			out[n] = true
		}
	}
	return out
}

// probe runs one health round over the fleet's replicas sequentially;
// fleets are a handful of replicas and the probe timeout is short, so a
// round comfortably fits one interval without fan-out.
func (h *Health) probe(f *fleet) {
	threshold := h.Threshold
	if threshold <= 0 {
		threshold = 2
	}
	timeout := time.Second
	if h.Interval > 0 && h.Interval < timeout {
		timeout = h.Interval
	}
	for _, name := range f.ring.Names() {
		ok := probeOne(f.urls[name]+"/healthz", timeout)
		h.mu.Lock()
		if h.fails == nil {
			h.fails = make(map[string]int)
			h.down = make(map[string]bool)
		}
		wasDown := h.down[name]
		if ok {
			h.fails[name] = 0
			h.down[name] = false
		} else {
			h.fails[name]++
			if h.fails[name] >= threshold {
				h.down[name] = true
			}
		}
		isDown := h.down[name]
		h.mu.Unlock()
		if wasDown != isDown && h.OnChange != nil {
			h.OnChange(name, !isDown)
		}
	}
}

func probeOne(url string, timeout time.Duration) bool {
	//mfodlint:allow ctxpropagate background health prober runs outside any request; every probe is bounded by the per-probe timeout
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	// Drain before closing so the keep-alive connection is reusable;
	// otherwise every probe round dials each replica afresh.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// nextDelay returns the jittered wait before the next probe round.
func (h *Health) nextDelay(interval time.Duration, rng *rand.Rand) time.Duration {
	j := h.Jitter
	if j == 0 {
		j = 0.1
	}
	if j < 0 {
		return interval
	}
	if j > 1 {
		j = 1
	}
	// Uniform over [1−j, 1+j] of the interval.
	f := 1 - j + 2*j*rng.Float64()
	d := time.Duration(f * float64(interval))
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Run probes the table's current fleet roughly every Interval — each
// wait is jittered (see Jitter) so co-started probers desynchronize —
// until stop is closed. The first round runs immediately so a gate does
// not serve an entire interval blind.
func (h *Health) Run(table *Table, stop <-chan struct{}) {
	interval := h.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	seed := time.Now().UnixNano()
	//mfodlint:allow poolmisuse replica health prober: a single long-lived goroutine per gate process, stopped via the stop channel on shutdown; verdicts cross to the routing path only through the mutex-guarded maps
	go func() {
		rng := rand.New(rand.NewSource(seed))
		h.probe(table.Fleet())
		timer := time.NewTimer(h.nextDelay(interval, rng))
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C:
				h.probe(table.Fleet())
				timer.Reset(h.nextDelay(interval, rng))
			}
		}
	}()
}
