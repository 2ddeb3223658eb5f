package fda

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bspline"
	"repro/internal/linalg"
	"repro/internal/parallel"
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
	// Parallel bounds the FitDataset worker pool: 0 means GOMAXPROCS,
	// 1 runs sequentially on the calling goroutine. Fits are written
	// back by sample index, so the result is bitwise identical for
	// every worker count.
	Parallel int
	// Cache memoizes design/penalty matrices and their factorizations
	// across fits (see BasisCache). nil makes FitDataset create a
	// private cache for the call; FitSample uses a cache only when one
	// is supplied. Ignored for custom Basis factories.
	Cache *BasisCache
	// NoCache disables basis caching entirely, forcing every fit to
	// rebuild its linear algebra from scratch — the sequential seed
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
	var sd *linalg.SpanMatrix
	if bs, ok := f.Basis.(*bspline.BSpline); ok && f.cache != nil {
		sd = f.cache.spanDesign(bs, ts, deriv)
	}
	if sd == nil {
		sd = bspline.NewSpanDesign(f.Basis, ts, deriv)
	}
	out := make([]float64, len(ts))
	if err := sd.MulVecInto(f.Coef, out); err != nil {
		panic(err) // a fit holds one coefficient per basis function
	}
	return out
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

// EvalGrid returns a (p × len(ts)) matrix of deriv-th derivatives.
func (f *Fit) EvalGrid(ts []float64, deriv int) [][]float64 {
	out := make([][]float64, len(f.Params))
	for k, p := range f.Params {
		out[k] = p.EvalGrid(ts, deriv)
	}
	return out
}

// FitSample fits all p parameters of one MFD sample with the penalized
// least-squares criterion of Eq. 3. Each candidate basis size gets one
// smoothing system — design, Gram, penalty and λ factorizations, none
// of which depend on the observed values — and every parameter is fit
// against it; selectFit then keeps, per parameter, the basis size and λ
// that minimise the selection criterion (by default the closed-form
// leave-one-out cross-validation error).
func FitSample(s Sample, opt Options) (*Fit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return fitGrid(s.Times, s.Values, opt, (*BasisCache).fitEntryFor)
}

// fitGrid is the fit shared by FitSample and Incremental.Fit: it builds
// the smoothing system of every candidate basis size on the grid ts and
// lets selectFit pick, per parameter row of ys. cached is how a system
// is taken from the cache — FitSample offers its grid for admission
// (fitEntryFor, which admits it on its second sighting), a stream only
// looks its prefix grid up (lookupFitEntry); the grid is hashed once
// for every size. A system the cache does not supply is
// built for this call alone, reading the cache's shared penalty;
// without a cache, or with a custom Basis factory, it gets a private
// one. Every value in ys must be finite: the span-compact design
// products skip zero terms, which is exact only against finite values.
func fitGrid(ts []float64, ys [][]float64, opt Options,
	cached func(c *BasisCache, key fitKey, ts []float64) *fitEntry) (*Fit, error) {
	if len(ts) < 2 {
		return nil, fmt.Errorf("fda: need at least 2 points, got %d: %w", len(ts), ErrData)
	}
	lo, hi := opt.Lo, opt.Hi
	if !opt.HasDomain() {
		lo, hi = ts[0], ts[len(ts)-1]
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("fda: degenerate domain [%g, %g]: %w", lo, hi, ErrData)
	}
	factory := opt.factory()
	order, q := opt.order(), opt.penaltyDeriv()
	cache := opt.basisCache()
	dims := opt.dims(len(ts))
	var key fitKey
	if cache != nil {
		key = fitKey{order: order, q: q, lo: lo, hi: hi, m: len(ts), tsHash: hashFloats(ts)}
	}
	systems := make([]system, len(dims))
	for i, dim := range dims {
		if cache != nil {
			key.dim = dim
			if e := cached(cache, key, ts); e != nil {
				systems[i].entry = e
				continue
			}
		}
		basis, err := factory(dim, lo, hi)
		if err != nil {
			systems[i].err = err
			continue
		}
		var pen *penalty
		if cache != nil {
			pen = cache.penaltyFor(dim, order, q, lo, hi)
		} else {
			pen = new(penalty)
		}
		systems[i].entry = newFitEntry(basis, ts, q, pen)
	}
	return selectFit(systems, ys, opt)
}

// system is the smoothing system of one candidate basis size, or the
// error that kept it from being built.
type system struct {
	entry *fitEntry
	err   error
	// factors are the entry's λ factorizations in candidate order,
	// resolved once per fit by resolveSystems.
	factors []*lambdaFactor
}

// selectFit is fitGrid's model selection: each parameter row of ys is
// fit against every candidate system in ladder order, and the criterion
// minimiser wins (strict <, so the earlier candidate keeps a tie). A
// parameter that no candidate fits reports the first candidate error.
// Each system's penalty and λ factorizations are resolved once, before
// the first row, and every row is fit in one scratch buffer, so a
// parameter allocates only its winning CurveFit.
func selectFit(systems []system, ys [][]float64, opt Options) (*Fit, error) {
	lambdas, cache := opt.lambdas(), opt.basisCache()
	maxL := resolveSystems(systems, lambdas)
	m := 0
	if len(ys) > 0 {
		m = len(ys[0])
	}
	buf := make([]float64, 4*maxL+m)
	keep, work := buf[:maxL], buf[maxL:]
	fit := &Fit{Params: make([]*CurveFit, len(ys))}
	for k, y := range ys {
		var best CurveFit
		var firstErr error
		for i := range systems {
			sys := &systems[i]
			if sys.entry == nil {
				if firstErr == nil {
					firstErr = sys.err
				}
				continue
			}
			cf, err := fitWithEntry(sys, y, lambdas, opt.Criterion, work)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best.Basis == nil || cf.Score < best.Score {
				best = cf
				best.Coef = append(keep[:0], cf.Coef...)
			}
		}
		if best.Basis == nil {
			inner := fmt.Errorf("fda: no candidate basis fit: %w", ErrFit)
			if firstErr != nil {
				inner = fmt.Errorf("fda: no candidate basis fit: %w", firstErr)
			}
			return nil, fmt.Errorf("fda: parameter %d: %w", k, inner)
		}
		best.Coef = slices.Clone(best.Coef)
		best.cache = cache
		fit.Params[k] = &best
	}
	return fit, nil
}

// resolveSystems takes each built system's λ factorizations from its
// entry, building any the entry lacks, after forcing the penalty when
// any λ > 0 is in play: a penalty construction failure fails the whole
// basis size, which then carries that error. It returns the largest
// basis size.
func resolveSystems(systems []system, lambdas []float64) int {
	needPenalty := slices.ContainsFunc(lambdas, func(l float64) bool { return l > 0 })
	factors := make([]*lambdaFactor, len(systems)*len(lambdas))
	maxL := 0
	for i := range systems {
		sys := &systems[i]
		if sys.entry == nil {
			continue
		}
		if needPenalty {
			if err := sys.entry.ensurePenalty(); err != nil {
				sys.entry, sys.err = nil, err
				continue
			}
		}
		sys.factors = factors[i*len(lambdas) : (i+1)*len(lambdas)]
		sys.entry.lambdaFactors(lambdas, sys.factors)
		maxL = max(maxL, sys.entry.basis.Dim())
	}
	return maxL
}

// fitWithEntry solves Eq. 4 for every candidate λ of one smoothing
// system and returns the criterion minimiser. The LOOCV error of a
// linear smoother ŷ = H y has the closed form
// Σ_j ((y_j − ŷ_j)/(1 − H_jj))², avoiding m refits; the hat diagonal
// H_jj comes factored and precomputed from the entry, so the per-sample
// work is one Φᵀy product and, per λ, one O(L·k) solve, one ŷ = Φα
// product and the residual scan, the products over each design row's k
// nonzero values. The λ iteration order, the ridge retry and the strict
// score-minimisation tie-break are exactly those of the sequential seed
// path. A λ whose solve yields a non-finite coefficient is skipped like
// a failed factorization: Φα skips each row's zero terms, which is
// exact only against finite coefficients (DESIGN.md §6). work holds
// at least 3L + m values: Φᵀy, two coefficient buffers that trade
// places whenever a λ takes the lead, and ŷ. The returned Coef aliases
// work and is overwritten by the next call.
func fitWithEntry(sys *system, ys, lambdas []float64, crit Criterion, work []float64) (CurveFit, error) {
	e := sys.entry
	L, m := e.basis.Dim(), len(ys)
	phiTy, coef, spare, yhat := work[:L], work[L:2*L], work[2*L:3*L], work[3*L:3*L+m]
	if err := e.phi.AtVecInto(ys, phiTy); err != nil {
		return CurveFit{}, err
	}
	var best CurveFit
	for i, lf := range sys.factors {
		if lf.err != nil {
			continue
		}
		if err := lf.solver.SolveInto(phiTy, coef); err != nil || !finite(coef) {
			continue
		}
		if err := e.phi.MulVecInto(coef, yhat); err != nil {
			return CurveFit{}, err
		}
		hat := lf.hat[:m]
		var loocv, rss float64
		for j, y := range ys {
			res := y - yhat[j]
			rss += res * res
			den := 1 - hat[j]
			if den < 1e-10 {
				// Interpolating point: LOOCV blows up; score it with the
				// raw residual so such models lose to genuinely smoother
				// ones without being discarded outright.
				den = 1e-10
			}
			r := res / den
			loocv += r * r
		}
		loocv /= float64(m)
		gcv := math.Inf(1)
		if den := float64(m) - lf.trH; den > 1e-10 {
			gcv = float64(m) * rss / (den * den)
		}
		score := loocv
		if crit == GCV {
			score = gcv
		}
		if best.Basis == nil || score < best.Score {
			best = CurveFit{Basis: e.basis, Coef: coef, Lambda: lambdas[i], LOOCV: loocv, GCV: gcv, DF: lf.trH, Score: score}
			coef, spare = spare, coef
		}
	}
	if best.Basis == nil {
		return CurveFit{}, fmt.Errorf("fda: all λ candidates failed for dim %d: %w", L, ErrFit)
	}
	return best, nil
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
// Samples fan out over a bounded worker pool (Options.Parallel; 0 means
// GOMAXPROCS) sharing one BasisCache, so the design/penalty matrices
// and factorizations of the λ × basis-size grid are derived once for
// the whole dataset. Each fit is written back to its sample index and
// the per-fit arithmetic does not depend on scheduling, so the result
// is bitwise identical for every worker count and for cold vs warm
// caches; on error the lowest-index sample's error is returned, exactly
// as a sequential loop would surface it.
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
	return parallel.Map(d.Len(), opt.Parallel, func(i int) (*Fit, error) {
		f, err := FitSample(d.Samples[i], opt)
		if err != nil {
			return nil, fmt.Errorf("fda: sample %d: %w", i, err)
		}
		return f, nil
	})
}
