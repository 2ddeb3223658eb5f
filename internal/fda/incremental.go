package fda

import (
	"fmt"
	"math"
	"sort"
)

// Incremental holds the observations of one partially observed MFD
// sample as they arrive, so a stream of appended (t, value) points can
// be refit at any moment.
//
// The equivalence contract — the reason this type is trusted — is that
// a stream fits *bitwise identically* to the batch path (FitSample with
// the same Options) over the observations it holds, regardless of the
// order or chunking they arrived in. It holds by construction: the
// observations are kept sorted by time (a re-observed time keeps its
// last values), and Fit runs FitSample's own code over them — the same
// smoothing systems and the same selection kernel, fitColumns, for a
// group of one.
//
// The one difference is the BasisCache: a growing stream passes through
// a new prefix grid on every refit, so Fit only looks its grid up and
// never offers it for admission. A grid the batch path admitted (a
// stream that completed on the training grid) reuses the resident λ
// factorizations; any other grid gets systems built for the one Fit by
// the constructor that builds the resident ones, reading the cache's
// shared penalty. Streams that sample at a fixed rate repeat
// their prefix grids, and admitting those would pay: a prototype that
// let refits admit them cut the benchmark's `stream` CPU per curve by
// 13.5% and 17.1% in 2 pairs, but raised its end-of-run heap from 3.9
// to 5.0 MB (+27%), because each replica then held 16 prefix grids. So
// prefix grids stay lookup-only until a prefix entry costs less heap.
//
// Incremental is not safe for concurrent use; callers (internal/stream)
// serialize access per stream.
type Incremental struct {
	opt Options
	p   int

	ts []float64   // strictly increasing observed times
	ys [][]float64 // p rows aligned with ts
}

// NewIncremental starts an empty incremental fitter for a p-parameter
// stream. The options must pin an explicit domain (Options.Lo/Hi): a
// stream's basis cannot follow the observed span, or early fits would
// live on a different knot grid than the completed curve and the batch
// equivalence above would be meaningless.
func NewIncremental(p int, opt Options) (*Incremental, error) {
	if p < 1 {
		return nil, fmt.Errorf("fda: incremental fitter needs p >= 1 parameters, got %d: %w", p, ErrData)
	}
	if !opt.HasDomain() {
		return nil, fmt.Errorf("fda: incremental fitter needs a fixed domain (Options.Lo/Hi): %w", ErrData)
	}
	if !(opt.Lo < opt.Hi) {
		return nil, fmt.Errorf("fda: degenerate domain [%g, %g]: %w", opt.Lo, opt.Hi, ErrData)
	}
	return &Incremental{opt: opt, p: p, ys: make([][]float64, p)}, nil
}

// Len returns the number of distinct observed times.
func (inc *Incremental) Len() int { return len(inc.ts) }

// Span returns the observed sub-domain [first, last] time; ok is false
// while the stream is empty.
func (inc *Incremental) Span() (lo, hi float64, ok bool) {
	if len(inc.ts) == 0 {
		return 0, 0, false
	}
	return inc.ts[0], inc.ts[len(inc.ts)-1], true
}

// CheckAppend validates an observation without applying it, so callers
// batching several points can make the batch all-or-nothing: validate
// every point first, then apply. Validation is stateless with respect
// to other pending points (duplicates within a batch are legal — last
// write wins), so check-then-apply cannot diverge from apply.
func (inc *Incremental) CheckAppend(t float64, vals []float64) error {
	if len(vals) != inc.p {
		return fmt.Errorf("fda: append carries %d values, stream has %d parameters: %w", len(vals), inc.p, ErrData)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("fda: non-finite time %g: %w", t, ErrData)
	}
	if !(t >= inc.opt.Lo && t <= inc.opt.Hi) {
		return fmt.Errorf("fda: time %g outside stream domain [%g, %g]: %w", t, inc.opt.Lo, inc.opt.Hi, ErrData)
	}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fda: non-finite value %g for parameter %d: %w", v, k, ErrData)
		}
	}
	return nil
}

// Append adds one observation: the p-vector observed at time t. Times
// may arrive in any order within the fixed domain; re-observing an
// existing timestamp replaces its values (last write wins). The
// observation is validated before any state changes, so a rejected
// append leaves the stream untouched.
func (inc *Incremental) Append(t float64, vals []float64) error {
	if err := inc.CheckAppend(t, vals); err != nil {
		return err
	}
	pos := sort.SearchFloat64s(inc.ts, t)
	if pos < len(inc.ts) && !(inc.ts[pos] > t) {
		// Same timestamp re-observed: replace values in place.
		for k := range inc.ys {
			inc.ys[k][pos] = vals[k]
		}
		return nil
	}
	inc.ts = insertFloat(inc.ts, pos, t)
	for k := range inc.ys {
		inc.ys[k] = insertFloat(inc.ys[k], pos, vals[k])
	}
	return nil
}

// TrimOldest drops the oldest observations until at most keep remain,
// returning how many were dropped. Streams use this as the
// sliding-window policy for drifting baselines.
func (inc *Incremental) TrimOldest(keep int) int {
	if keep < 0 {
		keep = 0
	}
	drop := len(inc.ts) - keep
	if drop <= 0 {
		return 0
	}
	inc.ts = removeFront(inc.ts, drop)
	for k := range inc.ys {
		inc.ys[k] = removeFront(inc.ys[k], drop)
	}
	return drop
}

// Fit refits the stream over the observations it holds, returning
// bitwise the *Fit a batch FitSample over them would (see the type
// comment).
func (inc *Incremental) Fit() (*Fit, error) {
	return fitOne(inc.ts, inc.ys, inc.opt, false)
}

func insertFloat(xs []float64, pos int, v float64) []float64 {
	xs = append(xs, 0)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = v
	return xs
}

// removeFront drops the first n elements while keeping the backing
// array, so a sliding window does not reallocate per trim.
func removeFront(xs []float64, n int) []float64 {
	copy(xs, xs[n:])
	return xs[:len(xs)-n]
}
