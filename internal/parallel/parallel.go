package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option against the number of items:
// n <= 0 means GOMAXPROCS, and the count never exceeds items so small
// inputs do not pay goroutine startup for idle workers.
func Workers(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// For runs fn(worker, i) for every i in [0, n) across the given number
// of workers (<= 0 means GOMAXPROCS) and returns when all calls have
// finished. worker identifies the executing goroutine in [0, workers),
// so callers can keep per-worker scratch buffers without locking.
// Indices are claimed from a shared atomic counter for load balance;
// determinism is the caller's job and is achieved by writing results
// only to slot i. With one worker (or n <= 1) everything runs inline on
// the calling goroutine.
//
// A panic in fn is re-raised on the calling goroutine once the other
// workers drain, preserving the recover semantics callers such as the
// internal/serve pool rely on.
func For(n, workers int, fn func(worker, i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
					// Stop handing out work: the batch is poisoned.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Map runs fn(i) for every i in [0, n) through For and returns the
// results in index order. On failure it returns the lowest-index error,
// the one a sequential loop would have surfaced first, and no results:
// the slots of a failed run are never visible to the caller. A panic in
// fn is re-raised on the calling goroutine, as with For.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(n, workers, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	if err := FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// FirstError returns the lowest-index non-nil error of errs, matching
// the error a sequential loop over the same work would have surfaced
// first — the determinism contract of the fan-out call sites.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
