package fda

import (
	"slices"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// SolveDotFit fits the rows of ys on the grid ts as FitSample and
// Incremental.Fit do, with one difference: every candidate's criteria
// read the hat diagonal of one SolveInto and one Dot per design row,
// the kernel the smoother had before the selected-inverse recursion.
// It assembles every system afresh, from newFitEntry's parts; opt must
// fix the domain.
func SolveDotFit(ts []float64, ys [][]float64, opt Options) (*Fit, error) {
	lambdas := opt.lambdas()
	g := &gridSystems{m: len(ts)}
	for _, dim := range opt.dims(len(ts)) {
		e := &fitEntry{ts: ts, lambdas: lambdas}
		g.entries = append(g.entries, e)
		basis, err := opt.factory()(dim, opt.Lo, opt.Hi)
		if err != nil {
			e.err = err
			continue
		}
		k := bandwidth(basis)
		var r []float64
		if slices.ContainsFunc(lambdas, func(l float64) bool { return l > 0 }) {
			if r, e.err = new(penalty).band(basis, opt.penaltyDeriv(), k); e.err != nil {
				continue
			}
		}
		e.basis, e.phi = basis, bspline.NewSpanDesign(basis, ts, 0)
		gram := make([]float64, basis.Dim()*(k+1))
		if err := e.phi.GramBandInto(k, gram); err != nil {
			return nil, err
		}
		e.factors = make([]lambdaFactor, len(lambdas))
		for i, lambda := range lambdas {
			lf := &e.factors[i]
			if lf.solver, lf.err = factor(gram, r, k, lambda); lf.err == nil {
				lf.hat, lf.trH = solveDotHat(lf.solver, e.phi)
			}
		}
		g.maxL = max(g.maxL, basis.Dim())
	}
	return newFit(g.fitColumns(ys, opt.Criterion), nil)
}

// solveDotHat is the hat diagonal of one SolveInto and one Dot per row
// of phi, and its trace.
func solveDotHat(bc *linalg.BandCholesky, phi *linalg.SpanMatrix) ([]float64, float64) {
	m, n := phi.Dims()
	hat := make([]float64, m)
	row, sol := make([]float64, n), make([]float64, n)
	var trH float64
	for j := range hat {
		start, vals := phi.Row(j)
		copy(row[start:], vals)
		if err := bc.SolveInto(row, sol); err != nil {
			panic(err) // row and sol have the factor's length
		}
		hat[j] = linalg.Dot(row, sol)
		trH += hat[j]
		clear(row[start : start+len(vals)])
	}
	return hat, trH
}
