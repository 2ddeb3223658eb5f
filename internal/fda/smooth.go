package fda

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// ErrFit reports a smoothing failure (singular system, bad options).
var ErrFit = errors.New("fda: smoothing failed")

// BasisFactory builds a basis of the requested dimension on [lo, hi];
// swapping the factory switches between B-spline and Fourier systems.
type BasisFactory func(dim int, lo, hi float64) (bspline.Basis, error)

// Options configures the penalized least-squares smoother of Eq. 3–4.
// The zero value selects the paper's defaults: cubic B-splines, candidate
// basis sizes chosen from the sample length, acceleration (q = 2) penalty
// with λ chosen among a small log-spaced grid, all scored by closed-form
// leave-one-out cross-validation.
type Options struct {
	// Order is the B-spline order (degree + 1); 0 means 4 (cubic).
	Order int
	// Dims are the candidate basis sizes L scored by cross-validation.
	// Empty means a small ladder scaled to the number of points.
	Dims []int
	// Lambdas are the candidate roughness penalties λ ≥ 0. Empty means
	// {0, 1e-8, 1e-6, 1e-4, 1e-2}.
	Lambdas []float64
	// PenaltyDeriv is the derivative order q penalised in Eq. 3;
	// 0 means 2 (acceleration), the common practical choice per Sec. 2.2.
	PenaltyDeriv int
	// Basis overrides the default clamped B-spline factory.
	Basis BasisFactory
	// Domain optionally fixes the basis domain; when Lo == Hi the sample's
	// own range is used. Fixing the domain keeps fits from different
	// samples comparable on one grid.
	Lo, Hi float64
	// Criterion selects the model-selection score; the default is the
	// paper's leave-one-out cross-validation.
	Criterion Criterion
	// Parallel bounds the worker pool FitDataset and MapFits fan their
	// blocks of samples out over: 0 means GOMAXPROCS, 1 runs
	// sequentially on the calling goroutine. Fits are written back by
	// sample index, so the result is bitwise identical for every
	// worker count.
	Parallel int
	// Cache memoizes design/penalty matrices and their factorizations
	// across fits (see BasisCache). nil makes FitDataset create a
	// private cache for the call; FitSample and MapFits use a cache
	// only when one is supplied. Ignored for custom Basis factories.
	Cache *BasisCache
	// NoCache disables basis caching entirely, forcing every fit to
	// rebuild its linear algebra from scratch: every sample builds its
	// own systems, even among samples on one grid — the sequential seed
	// behavior the golden-equivalence suite and BENCH_hotpath.json
	// compare against.
	NoCache bool
}

// HasDomain reports whether the smoothing domain was fixed explicitly.
// The zero value (Lo == Hi, not necessarily zero) means "use the data's
// own range"; the exact comparison is the sentinel test for that
// configuration state, not a numeric tolerance decision.
func (o Options) HasDomain() bool {
	return o.Lo != o.Hi //mfodlint:allow floateq Lo == Hi is the documented unset-domain sentinel; the exact test is the point
}

// Criterion is the model-selection score minimised over candidate basis
// sizes and penalties.
type Criterion int

// Supported model-selection criteria.
const (
	// LOOCV is the closed-form leave-one-out cross-validation error, the
	// paper's choice (Sec. 4.1).
	LOOCV Criterion = iota
	// GCV is generalized cross-validation, n·RSS/(n − tr H)²: a rotation-
	// invariant relaxation of LOOCV that is cheaper to reason about and
	// often slightly smoother (Ramsay & Silverman, ch. 5).
	GCV
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case LOOCV:
		return "loocv"
	case GCV:
		return "gcv"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

func (o Options) order() int {
	if o.Order == 0 {
		return 4
	}
	return o.Order
}

func (o Options) penaltyDeriv() int {
	if o.PenaltyDeriv == 0 {
		return 2
	}
	return o.PenaltyDeriv
}

func (o Options) lambdas() []float64 {
	if len(o.Lambdas) > 0 {
		return o.Lambdas
	}
	return []float64{0, 1e-8, 1e-6, 1e-4, 1e-2}
}

func (o Options) dims(m int) []int {
	if len(o.Dims) > 0 {
		return o.Dims
	}
	// Candidate sizes stay well below m (L ≪ m, Sec. 2.1): larger ladders
	// let LOOCV chase measurement noise, which wrecks the derivative
	// estimates the geometric mappings depend on.
	order := o.order()
	var out []int
	for _, frac := range []float64{0.08, 0.12, 0.18, 0.25} {
		d := int(math.Round(frac * float64(m)))
		if d < order {
			d = order
		}
		if d >= m {
			d = m - 1
		}
		if d >= order && (len(out) == 0 || d > out[len(out)-1]) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{order}
	}
	return out
}

func (o Options) factory() BasisFactory {
	if o.Basis != nil {
		return o.Basis
	}
	order := o.order()
	return func(dim int, lo, hi float64) (bspline.Basis, error) {
		return bspline.New(dim, order, lo, hi)
	}
}

// basisCache returns the cache fits share: Cache, unless caching is
// disabled or a custom Basis factory (which cannot be keyed) is set.
func (o Options) basisCache() *BasisCache {
	if o.Basis != nil || o.NoCache {
		return nil
	}
	return o.Cache
}

// CurveFit is the fitted approximation x̃ of one parameter: the basis, the
// estimated coefficient vector α* (Eq. 4) and the model-selection scores.
type CurveFit struct {
	Basis  bspline.Basis
	Coef   []float64
	Lambda float64
	// LOOCV is the leave-one-out cross-validation score of the selected
	// (dim, λ) pair; GCV its generalized cross-validation score; DF the
	// effective degrees of freedom tr(H); Score the value of the
	// criterion that drove the selection.
	LOOCV float64
	GCV   float64
	DF    float64
	Score float64

	// cache, when the fit came from a cached system, lets EvalGrid
	// reuse memoized span-compact designs across samples.
	cache *BasisCache
}

// Eval returns the deriv-th derivative of the fitted curve at t (Eq. 2).
func (f *CurveFit) Eval(t float64, deriv int) float64 {
	if bs, ok := f.Basis.(*bspline.BSpline); ok {
		buf := make([]float64, bs.Order())
		start := bs.EvalNonzero(t, deriv, buf)
		var s float64
		for r, v := range buf {
			s += f.Coef[start+r] * v
		}
		return s
	}
	buf := make([]float64, f.Basis.Dim())
	f.Basis.Eval(t, deriv, buf)
	return linalg.Dot(f.Coef, buf)
}

// EvalGrid evaluates the deriv-th derivative on all grid points through
// a span-compact design: for a B-spline basis each point touches only
// the Order basis functions alive there (and, with a cache, the design
// is shared across every fit on the same grid) instead of evaluating
// and dotting all Dim functions point by point. The compact dot keeps
// the surviving terms in index order and a fit's coefficients are
// finite, so the result is bitwise the point-by-point one.
func (f *CurveFit) EvalGrid(ts []float64, deriv int) []float64 {
	return f.evalOn(&evalGrid{ts: ts}, deriv)
}

// evalOn is EvalGrid on the grid of one Fit.EvalGrid call.
func (f *CurveFit) evalOn(g *evalGrid, deriv int) []float64 {
	sd := g.design(f, deriv)
	if sd == nil {
		sd = bspline.NewSpanDesign(f.Basis, g.ts, deriv)
	}
	out := make([]float64, len(g.ts))
	if err := sd.MulVecInto(f.Coef, out); err != nil {
		panic(err) // a fit holds one coefficient per basis function
	}
	return out
}

// evalGrid is the grid of one EvalGrid call: its hash, taken at the
// first cache lookup, and the span design that lookup returned, which
// the next parameter reuses when it has the same basis.
type evalGrid struct {
	ts     []float64
	hash   uint64
	hashed bool
	basis  *bspline.BSpline
	sd     *linalg.SpanMatrix
}

// design returns the cache's span design of the fit's basis on the
// grid, or nil when the fit has no cache or no B-spline basis, or the
// cache holds another grid under the key.
func (g *evalGrid) design(f *CurveFit, deriv int) *linalg.SpanMatrix {
	bs, ok := f.Basis.(*bspline.BSpline)
	if !ok || f.cache == nil {
		return nil
	}
	if bs != g.basis {
		if !g.hashed {
			g.hash, g.hashed = hashFloats(g.ts), true
		}
		g.basis, g.sd = bs, f.cache.spanDesign(bs, g.ts, g.hash, deriv)
	}
	return g.sd
}

// Fit is the fitted approximation X̃ of a full MFD sample: one CurveFit per
// parameter, sharing a common domain.
type Fit struct {
	Params []*CurveFit
}

// Dim returns the number of parameters p.
func (f *Fit) Dim() int { return len(f.Params) }

// Eval returns the p-vector of deriv-th derivatives at t: D^deriv X̃(t).
func (f *Fit) Eval(t float64, deriv int) []float64 {
	out := make([]float64, len(f.Params))
	for k, p := range f.Params {
		out[k] = p.Eval(t, deriv)
	}
	return out
}

// EvalGrid returns a (p × len(ts)) matrix of deriv-th derivatives. The
// grid is hashed once for every parameter, and parameters that share a
// basis share one span design lookup.
func (f *Fit) EvalGrid(ts []float64, deriv int) [][]float64 {
	g := evalGrid{ts: ts}
	out := make([][]float64, len(f.Params))
	for k, p := range f.Params {
		out[k] = p.evalOn(&g, deriv)
	}
	return out
}

// FitSample fits all p parameters of one MFD sample with the penalized
// least-squares criterion of Eq. 3. Each candidate basis size gets one
// smoothing system — design, penalty and λ factorizations, none of
// which depend on the observed values — and every parameter is fit
// against it; the selection then keeps, per parameter, the basis size
// and λ that minimise the selection criterion (by default the
// closed-form leave-one-out cross-validation error). It is FitDataset's
// grouped fit for a group of one sample (see fitColumns).
func FitSample(s Sample, opt Options) (*Fit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return fitOne(s.Times, s.Values, opt, true)
}

// fitOne is the fit shared by FitSample and Incremental.Fit: the
// parameter rows ys of one sample on the grid ts, a group of one,
// whose systems the cache may admit when admit is set.
func fitOne(ts []float64, ys [][]float64, opt Options, admit bool) (*Fit, error) {
	g := newGridSystems(ts, hashFloats(ts), opt, admit)
	if g.err != nil {
		return nil, g.err
	}
	return newFit(g.fitColumns(ys, opt.Criterion), opt.basisCache())
}

// gridSystems is the smoothing system of every candidate basis size on
// one grid, built once and then read by every fit on that grid, or the
// error that keeps any fit off the grid.
type gridSystems struct {
	entries []*fitEntry
	m, maxL int // the grid's length and the largest basis size built
	err     error
}

// newGridSystems returns the smoothing system of every candidate basis
// size on the grid ts, whose hash is tsHash: each size is looked up
// once in the cache (see BasisCache.entry), which may admit it when
// admit is set; without a cache, or with a custom Basis factory, every
// size is built for this grid's fits alone.
func newGridSystems(ts []float64, tsHash uint64, opt Options, admit bool) gridSystems {
	g := gridSystems{m: len(ts)}
	if len(ts) < 2 {
		g.err = fmt.Errorf("fda: need at least 2 points, got %d: %w", len(ts), ErrData)
		return g
	}
	lo, hi := opt.Lo, opt.Hi
	if !opt.HasDomain() {
		lo, hi = ts[0], ts[len(ts)-1]
	}
	if !(lo < hi) {
		g.err = fmt.Errorf("fda: degenerate domain [%g, %g]: %w", lo, hi, ErrData)
		return g
	}
	lambdas, cache := opt.lambdas(), opt.basisCache()
	dims := opt.dims(len(ts))
	key := fitKey{order: opt.order(), q: opt.penaltyDeriv(), lo: lo, hi: hi, m: len(ts), tsHash: tsHash}
	g.entries = make([]*fitEntry, len(dims))
	for i, dim := range dims {
		build := func(ts, lambdas []float64) *fitEntry { return newFitEntry(opt, dim, lo, hi, ts, lambdas) }
		var e *fitEntry
		if cache == nil {
			e = build(ts, lambdas)
		} else {
			key.dim = dim
			e = cache.entry(key, ts, lambdas, admit, build)
		}
		if e.err == nil {
			g.maxL = max(g.maxL, e.basis.Dim())
		}
		g.entries[i] = e
	}
	return g
}

// column is one column's selection: its choice so far, its leader
// within the basis size at hand, and the first error it met.
type column struct {
	best CurveFit
	// lead is the index in the ladder of the λ that leads within the
	// basis size at hand, or −1 before one fits; loocv, gcv and score
	// are its criteria.
	lead              int
	loocv, gcv, score float64
	err               error
	// nonFinite marks a column whose solution for the λ at hand holds
	// a value that is not finite.
	nonFinite bool
}

// fitColumns runs the model selection of Eq. 3–4 for every column of
// ys — one parameter row of one sample each, all observed on the
// grid — at once, and returns each column's selected fit (best), whose
// Coef aliases a scratch buffer, or the error that left it none.
//
// Per basis size it forms Φᵀy of every column in one product, and per
// λ it solves every column in one band solve and forms every column's
// residual sums in one pass over the design rows, with ŷ = Φα. The
// LOOCV error of a linear smoother ŷ = H y has the closed form
// Σ_j ((y_j − ŷ_j)/(1 − H_jj))², avoiding m refits; the hat diagonal
// H_jj comes factored and precomputed from the entry. Each column's
// operations, and their order, are those of a fit of that column alone
// (no kernel mixes two columns' terms), so every coefficient, criterion
// and selection is bitwise that of a group of one.
//
// Each column keeps a two-level selection. Within a basis size the λ
// candidates are scanned in order and the first to succeed leads until
// a later one scores strictly lower; a λ whose factorization failed or
// whose solve yields a non-finite coefficient is skipped (Φα skips each
// row's zero terms, which is exact only against finite coefficients,
// DESIGN.md §6). Across sizes, in ladder order, a size's leader
// replaces the column's choice only when it scores strictly lower. The
// two levels differ from one running minimum once a score is NaN. A
// column that no size fits gets the first error met in ladder order.
func (g *gridSystems) fitColumns(ys [][]float64, crit Criterion) []column {
	B, m, maxL := len(ys), g.m, g.maxL
	// yb (the columns' values), pt (Φᵀy) and x (the solutions of one
	// λ) are row-major with B columns: column b's entry i sits at
	// [i*B+b]. den holds one λ's LOOCV denominators, rss and wss each
	// column's residual sums; sizeCoef and keep hold each column's
	// coefficients, maxL apart: those of its leader within the size,
	// and those of its choice.
	buf := make([]float64, m+2*B+m*B+4*B*maxL)
	den, rss, wss, rest := buf[:m], buf[m:m+B], buf[m+B:m+2*B], buf[m+2*B:]
	yb, rest := rest[:m*B], rest[m*B:]
	pt, x, sizeCoef, keep := rest[:B*maxL], rest[B*maxL:2*B*maxL], rest[2*B*maxL:3*B*maxL], rest[3*B*maxL:]
	for b, y := range ys {
		for j, v := range y {
			yb[j*B+b] = v
		}
	}
	cols := make([]column, B)
	for _, e := range g.entries {
		if e.err != nil {
			for b := range cols {
				if cols[b].err == nil {
					cols[b].err = e.err
				}
			}
			continue
		}
		L := e.basis.Dim()
		ptL, xL := pt[:B*L], x[:B*L]
		if err := e.phi.AtVecInto(ys, ptL); err != nil {
			panic(err) // every column holds the grid's m values
		}
		for b := range cols {
			cols[b].lead = -1
		}
		for li := range e.factors {
			lf := &e.factors[li]
			if lf.err != nil {
				continue
			}
			if err := lf.solver.SolveInto(ptL, xL); err != nil {
				panic(err) // ptL and xL hold B columns of L
			}
			for j, h := range lf.hat[:m] {
				d := 1 - h
				if d < 1e-10 {
					// Interpolating point: LOOCV blows up; score it
					// with the raw residual so such models lose to
					// genuinely smoother ones without being discarded
					// outright.
					d = 1e-10
				}
				den[j] = d
			}
			if err := e.phi.ResidualSums(xL, yb, den, rss, wss); err != nil {
				panic(err)
			}
			for b := range cols {
				cols[b].nonFinite = false
			}
			for i := 0; i < len(xL); i += B {
				for b, v := range xL[i : i+B] {
					if !(math.Abs(v) <= math.MaxFloat64) { // ±Inf or NaN
						cols[b].nonFinite = true
					}
				}
			}
			for b := range cols {
				if cols[b].nonFinite {
					continue
				}
				loocv := wss[b]
				loocv /= float64(m)
				gcv := math.Inf(1)
				if den := float64(m) - lf.trH; den > 1e-10 {
					gcv = float64(m) * rss[b] / (den * den)
				}
				score := loocv
				if crit == GCV {
					score = gcv
				}
				if c := &cols[b]; c.lead < 0 || score < c.score {
					c.lead, c.loocv, c.gcv, c.score = li, loocv, gcv, score
					dst := sizeCoef[b*maxL : b*maxL+L]
					for i := range dst {
						dst[i] = xL[i*B+b]
					}
				}
			}
		}
		var failed error // the error of a column no λ of this size fits
		for b := range cols {
			c := &cols[b]
			if c.lead < 0 {
				if failed == nil {
					failed = fmt.Errorf("fda: all λ candidates failed for dim %d: %w", L, ErrFit)
				}
				if c.err == nil {
					c.err = failed
				}
				continue
			}
			if c.best.Basis == nil || c.score < c.best.Score {
				c.best = CurveFit{Basis: e.basis, Lambda: e.lambdas[c.lead], LOOCV: c.loocv, GCV: c.gcv, DF: e.factors[c.lead].trH, Score: c.score}
				copy(keep[b*maxL:], sizeCoef[b*maxL:b*maxL+L])
			}
		}
	}
	for b := range cols {
		c := &cols[b]
		if c.best.Basis != nil {
			c.best.Coef, c.err = keep[b*maxL:b*maxL+c.best.Basis.Dim()], nil
			continue
		}
		inner := ErrFit
		if c.err != nil {
			inner = c.err
		}
		c.err = fmt.Errorf("fda: no candidate basis fit: %w", inner)
	}
	return cols
}

// newFit assembles one sample's fit from the selections of its
// parameter columns, copying their coefficients into one allocation,
// or returns the error of its lowest failing parameter.
func newFit(cols []column, cache *BasisCache) (*Fit, error) {
	n := 0
	for k, c := range cols {
		if c.err != nil {
			return nil, fmt.Errorf("fda: parameter %d: %w", k, c.err)
		}
		n += len(c.best.Coef)
	}
	coef := make([]float64, n)
	params := make([]CurveFit, len(cols))
	fit := &Fit{Params: make([]*CurveFit, len(cols))}
	for k, c := range cols {
		cf := &params[k]
		*cf = c.best
		cf.Coef = coef[:len(c.best.Coef):len(c.best.Coef)]
		copy(cf.Coef, c.best.Coef)
		coef = coef[len(c.best.Coef):]
		cf.cache = cache
		fit.Params[k] = cf
	}
	return fit, nil
}

// finite reports whether every value of xs is finite.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// FitDataset fits every sample of the dataset, fixing the basis domain to
// the dataset's global domain so all fits are comparable on one grid.
//
// The samples go through MapFits: grouped by grid, each group's
// systems looked up once and its parameter rows fit in blocks on a
// bounded worker pool (Options.Parallel; 0 means GOMAXPROCS) sharing one
// BasisCache. Each fit is written back to its sample index and its
// arithmetic depends neither on the grouping nor on scheduling, so the
// result is bitwise identical for every worker count and for cold vs
// warm caches; on error the lowest-index sample's error is returned,
// exactly as a sequential loop would surface it.
func FitDataset(d Dataset, opt Options) ([]*Fit, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !opt.HasDomain() {
		opt.Lo, opt.Hi = d.Domain()
	}
	if opt.Cache == nil && !opt.NoCache && opt.Basis == nil {
		opt.Cache = NewBasisCache()
	}
	return MapFits(d, opt, func(i int, fit *Fit, err error) (*Fit, error) {
		if err != nil {
			return nil, fmt.Errorf("fda: sample %d: %w", i, err)
		}
		return fit, nil
	})
}
