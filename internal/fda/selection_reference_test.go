package fda

import (
	"fmt"
	"math"
	"slices"
)

// This file keeps the single-column selection loop the smoother ran
// before fitColumns batched it, as the oracle FuzzFitDataset and the
// grouping tests hold the batched kernel to bit for bit.

// referenceFitSample is FitSample on the single-column loop.
func referenceFitSample(s Sample, opt Options) (*Fit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := newGridSystems(s.Times, hashFloats(s.Times), opt, true)
	if g.err != nil {
		return nil, g.err
	}
	return selectFit(&g, s.Values, opt)
}

// selectFit is the smoother's model selection one parameter row at a
// time, as it was before fitColumns batched it: each parameter row of
// ys is fit against every candidate system in ladder order, and the
// criterion minimiser wins (strict <, so the earlier candidate keeps a
// tie). A parameter that no candidate fits reports the first candidate
// error. Every row is fit in one scratch buffer.
func selectFit(g *gridSystems, ys [][]float64, opt Options) (*Fit, error) {
	cache := opt.basisCache()
	buf := make([]float64, 4*g.maxL+g.m)
	keep, work := buf[:g.maxL], buf[g.maxL:]
	fit := &Fit{Params: make([]*CurveFit, len(ys))}
	for k, y := range ys {
		var best CurveFit
		var firstErr error
		for _, e := range g.entries {
			if e.err != nil {
				if firstErr == nil {
					firstErr = e.err
				}
				continue
			}
			cf, err := fitWithEntry(e, y, opt.Criterion, work)
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
func fitWithEntry(e *fitEntry, ys []float64, crit Criterion, work []float64) (CurveFit, error) {
	L, m := e.basis.Dim(), len(ys)
	phiTy, coef, spare, yhat := work[:L], work[L:2*L], work[2*L:3*L], work[3*L:3*L+m]
	if err := e.phi.AtVecInto([][]float64{ys}, phiTy); err != nil {
		return CurveFit{}, err
	}
	var best CurveFit
	for i := range e.factors {
		lf := &e.factors[i]
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
			best = CurveFit{Basis: e.basis, Coef: coef, Lambda: e.lambdas[i], LOOCV: loocv, GCV: gcv, DF: lf.trH, Score: score}
			coef, spare = spare, coef
		}
	}
	if best.Basis == nil {
		return CurveFit{}, fmt.Errorf("fda: all λ candidates failed for dim %d: %w", L, ErrFit)
	}
	return best, nil
}
