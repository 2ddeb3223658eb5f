package fda

import (
	"math"

	"repro/internal/linalg"
)

// SolveDotFit fits the rows of ys on the grid ts as FitSample and
// Incremental.Fit do, with one difference: every candidate's criteria
// read the hat diagonal of one SolveInto and one Dot per design row,
// the kernel the smoother had before the selected-inverse recursion.
// It builds every system afresh; opt must fix the domain.
func SolveDotFit(ts []float64, ys [][]float64, opt Options) (*Fit, error) {
	var systems []system
	for _, dim := range opt.dims(len(ts)) {
		basis, err := opt.factory()(dim, opt.Lo, opt.Hi)
		if err != nil {
			systems = append(systems, system{err: err})
			continue
		}
		e := newFitEntry(basis, ts, opt.penaltyDeriv(), new(penalty))
		e.lambdas = make(map[uint64]*lambdaFactor)
		for _, lambda := range opt.lambdas() {
			lf := &lambdaFactor{}
			if lf.solver, lf.err = e.factor(lambda); lf.err == nil {
				lf.hat, lf.trH = solveDotHat(lf.solver, e.phi)
			}
			e.lambdas[math.Float64bits(lambda)] = lf
		}
		systems = append(systems, system{entry: e})
	}
	g := &gridSystems{systems: systems, m: len(ts), maxL: resolveSystems(systems, opt.lambdas())}
	return newFit(g.fitColumns(ys, opt.lambdas(), opt.Criterion), nil)
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
