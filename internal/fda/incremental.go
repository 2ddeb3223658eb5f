package fda

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// Incremental maintains the running penalized-least-squares state of one
// partially observed MFD sample, so a stream of appended (t, value)
// observations can be refit without redoing the whole design each time.
//
// The equivalence contract — the reason this type is trusted — is that a
// completed stream fits *bitwise identically* to the batch path
// (FitSample with the same Options), regardless of the order or
// chunking the observations arrived in:
//
//   - Per candidate basis size, the Gram matrix ΦᵀΦ is accumulated one
//     design row at a time via linalg.AddSymOuterUpper, whose inner
//     loops are exactly the per-row loops of linalg.AtA. Appends that
//     extend the time grid at the tail therefore add the same partial
//     sums, in the same order, as a batch AtA over the final design.
//   - Appends that land *inside* the observed grid (out-of-order
//     arrivals) or window trims change the row order, so the cheap
//     tail-accumulation no longer reproduces the batch summation order.
//     Those events mark the state dirty and the next Fit rebuilds every
//     Gram canonically from the stored design rows — the "periodic
//     refactor". Design rows are pure functions of t, so the rebuilt
//     state is again bitwise on the batch path, and cheap tail
//     accumulation resumes from there.
//   - Re-observing an existing timestamp replaces the value in place and
//     does not touch the Gram at all: fitWithEntry recomputes Φᵀy from
//     scratch on every fit, so only the time grid — never the values —
//     decides whether the Gram is current.
//   - Fitting runs the batch path's own selection loop, selectFit (same
//     λ ladder, same LOOCV/GCV arithmetic, same ridge retry, same strict
//     score tie-break), over transient fitEntry snapshots whose designs
//     are no-copy views of the accumulated rows. When a
//     BasisCache already holds the exact grid (a stream that completed
//     on a grid the batch path also fit), the resident entry is reused
//     via a lookup that never populates the cache — growing streams
//     pass through a new prefix grid per refit and must not churn it.
//
// Incremental is not safe for concurrent use; callers (internal/stream)
// serialize access per stream.
type Incremental struct {
	opt    Options
	order  int
	q      int
	lo, hi float64
	p      int

	ts []float64   // strictly increasing observed times
	ys [][]float64 // p rows aligned with ts

	accs     map[int]*incAcc // per candidate basis size
	dirty    bool            // row order changed since last canonical build
	rebuilds int
}

// incAcc is the running normal-equation state for one basis size: the
// design rows evaluated at every observed time plus the upper-triangle
// Gram accumulation. The lower triangle is only completed (mirrored)
// when a fit snapshot is taken.
type incAcc struct {
	basis     bspline.Basis
	bandwidth int
	dim       int
	slab      []float64 // row-major len(ts)×dim design rows
	gram      *linalg.Dense
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
	inc := &Incremental{
		opt:   opt,
		order: opt.order(),
		q:     opt.penaltyDeriv(),
		lo:    opt.Lo,
		hi:    opt.Hi,
		p:     p,
		ys:    make([][]float64, p),
		accs:  make(map[int]*incAcc),
	}
	return inc, nil
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

// Rebuilds returns how many canonical Gram refactors Fit has performed —
// the observable cost of out-of-order arrivals and window trims.
func (inc *Incremental) Rebuilds() int { return inc.rebuilds }

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
	if !(t >= inc.lo && t <= inc.hi) {
		return fmt.Errorf("fda: time %g outside stream domain [%g, %g]: %w", t, inc.lo, inc.hi, ErrData)
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
		// Same timestamp re-observed: replace values in place. The Gram
		// depends only on the time grid, so it stays current.
		for k := range inc.ys {
			inc.ys[k][pos] = vals[k]
		}
		return nil
	}
	tail := pos == len(inc.ts)
	inc.ts = insertFloat(inc.ts, pos, t)
	for k := range inc.ys {
		inc.ys[k] = insertFloat(inc.ys[k], pos, vals[k])
	}
	for _, acc := range inc.accs {
		acc.insertRow(pos, t)
		if tail && !inc.dirty {
			// Fast path: a new trailing row adds the exact next partial
			// sums a batch AtA would.
			m := len(inc.ts)
			row := acc.slab[(m-1)*acc.dim : m*acc.dim]
			if err := acc.gram.AddSymOuterUpper(row); err != nil {
				inc.dirty = true
			}
		}
	}
	if !tail {
		// Mid-grid arrival: the batch summation order changed; force a
		// canonical refactor on the next Fit.
		inc.dirty = true
	}
	return nil
}

// TrimOldest drops the oldest observations until at most keep remain,
// returning how many were dropped. Streams use this as the
// sliding-window policy for drifting baselines; any trim forces a
// canonical Gram refactor on the next Fit.
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
	for _, acc := range inc.accs {
		acc.slab = removeFront(acc.slab, drop*acc.dim)
	}
	inc.dirty = true
	return drop
}

// Fit refits the stream from the accumulated normal-equation state,
// returning the same *Fit a batch FitSample over the accumulated
// observations would — bitwise, per the contract in the type comment.
func (inc *Incremental) Fit() (*Fit, error) {
	m := len(inc.ts)
	if m < 2 {
		return nil, fmt.Errorf("fda: need at least 2 points, got %d: %w", m, ErrData)
	}
	dims := inc.opt.dims(m)
	inc.pruneAccs(dims)
	accs := make([]*incAcc, len(dims))
	systems := make([]system, len(dims))
	for i, dim := range dims {
		accs[i], systems[i].err = inc.ensureAcc(dim)
	}
	if inc.dirty {
		for _, acc := range accs {
			if acc != nil {
				acc.rebuildGram(m)
			}
		}
		inc.dirty = false
		inc.rebuilds++
	}
	for i, acc := range accs {
		if acc != nil {
			systems[i].entry, systems[i].err = inc.entryFor(acc, m)
		}
	}
	return selectFit(systems, inc.ys, inc.opt)
}

func (inc *Incremental) pruneAccs(dims []int) {
	for d := range inc.accs {
		keep := false
		for _, want := range dims {
			if want == d {
				keep = true
				break
			}
		}
		if !keep {
			delete(inc.accs, d)
		}
	}
}

// ensureAcc returns the accumulator for one basis size, building it —
// design rows for every observed time plus a canonical Gram — on first
// use (the dims ladder shifts as the stream grows, so sizes come and
// go).
func (inc *Incremental) ensureAcc(dim int) (*incAcc, error) {
	if acc, ok := inc.accs[dim]; ok {
		return acc, nil
	}
	basis, err := inc.opt.factory()(dim, inc.lo, inc.hi)
	if err != nil {
		return nil, err
	}
	acc := &incAcc{basis: basis, bandwidth: -1, dim: basis.Dim()}
	if bs, ok := basis.(*bspline.BSpline); ok {
		acc.bandwidth = bs.Order() - 1
	}
	m := len(inc.ts)
	acc.slab = make([]float64, m*acc.dim)
	for j, t := range inc.ts {
		basis.Eval(t, 0, acc.slab[j*acc.dim:(j+1)*acc.dim])
	}
	acc.rebuildGram(m)
	inc.accs[dim] = acc
	return acc, nil
}

// entryFor snapshots the accumulator into a fitEntry for fitWithEntry.
// A resident cache entry for the exact grid is preferred (its λ
// factorizations are already memoized); otherwise the entry is
// transient, viewing the accumulated rows without copying and cloning
// the Gram so the mirror step cannot corrupt the running upper
// triangle. A transient entry reads the cache's penalty for its basis,
// so the penalty is built once per basis size, not once per refit.
func (inc *Incremental) entryFor(acc *incAcc, m int) (*fitEntry, error) {
	var pen *penalty
	if cache := inc.opt.basisCache(); cache != nil {
		if e := cache.lookupFitEntry(acc.dim, inc.order, inc.q, inc.lo, inc.hi, inc.ts); e != nil {
			return e, nil
		}
		pen = cache.penaltyFor(acc.dim, inc.order, inc.q, inc.lo, inc.hi)
	} else {
		pen = new(penalty)
	}
	phi, err := linalg.NewDenseData(m, acc.dim, acc.slab[:m*acc.dim])
	if err != nil {
		return nil, err
	}
	gram := acc.gram.Clone()
	gram.MirrorUpper()
	e := &fitEntry{
		basis:     acc.basis,
		bandwidth: acc.bandwidth,
		ts:        inc.ts,
		phi:       phi,
		gram:      gram,
		q:         inc.q,
		pen:       pen,
	}
	return e, nil
}

func (acc *incAcc) insertRow(pos int, t float64) {
	old := len(acc.slab)
	acc.slab = append(acc.slab, make([]float64, acc.dim)...)
	copy(acc.slab[(pos+1)*acc.dim:], acc.slab[pos*acc.dim:old])
	acc.basis.Eval(t, 0, acc.slab[pos*acc.dim:(pos+1)*acc.dim])
}

// rebuildGram re-accumulates the Gram canonically: every stored row in
// grid order through the same per-row loops AtA runs, so the result is
// bitwise what a batch AtA over the full design produces.
func (acc *incAcc) rebuildGram(m int) {
	acc.gram = linalg.NewDense(acc.dim, acc.dim)
	for j := 0; j < m; j++ {
		// The row length always matches the Gram by construction.
		_ = acc.gram.AddSymOuterUpper(acc.slab[j*acc.dim : (j+1)*acc.dim])
	}
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
