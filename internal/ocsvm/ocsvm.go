package ocsvm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/detector"
)

// ErrOptions reports invalid hyper-parameters, or a saved model that
// does not decode to one that can score.
var ErrOptions = errors.New("ocsvm: invalid options")

// Options configures a one-class SVM and trains it: it is the model's
// detector.Spec.
type Options struct {
	// Nu ∈ (0, 1] upper-bounds the training outlier fraction and
	// lower-bounds the support-vector fraction; 0 means 0.1.
	Nu float64
	// Kernel defaults to RBF with the GammaScale heuristic when nil.
	Kernel Kernel
	// Tol is the SMO KKT-violation stopping tolerance; 0 means 1e-4.
	Tol float64
	// MaxIter caps SMO iterations; 0 means 200·n (generous for the
	// n ≤ a-few-hundred functional datasets this repository handles).
	MaxIter int
}

// Model is a fitted one-class SVM, trained by Options.Fit or read by
// UnmarshalJSON; it has no way to be refit. Decision, Score and
// ScoreBatch only read the support set recorded by Fit, so a Model is
// safe for concurrent scoring from multiple goroutines.
type Model struct {
	kernel Kernel
	// Support set: training vectors with α > 0 and their weights.
	supportX [][]float64
	alpha    []float64
	rho      float64
	dim      int
	// Iterations actually used by SMO, for diagnostics.
	Iterations int
}

// Name identifies the detector in reports.
func (m *Model) Name() string { return "OCSVM" }

// Fit solves the ν-OCSVM dual on the feature vectors x with SMO and
// returns the fitted *Model.
func (opt Options) Fit(x [][]float64) (detector.Model, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("ocsvm: empty training set")
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("ocsvm: sample %d has %d features, want %d", i, len(xi), dim)
		}
	}
	nu := opt.Nu
	if nu == 0 {
		nu = 0.1
	}
	if nu <= 0 || nu > 1 {
		return nil, fmt.Errorf("ocsvm: nu = %g outside (0, 1]: %w", nu, ErrOptions)
	}
	kernel := opt.Kernel
	if kernel == nil {
		kernel = RBF{Gamma: GammaScale(x)}
	}
	c := 1 / (nu * float64(n)) // box constraint per α_i
	// Precompute the kernel matrix; n is small in functional-data settings
	// so the O(n²) memory is the right trade against repeated kernel calls.
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel.Eval(x[i], x[j])
			q[i][j] = v
			q[j][i] = v
		}
	}
	// Feasible start as in libsvm: the first ⌊νn⌋ points at the box bound,
	// one fractional point to reach Σα = 1 exactly.
	alpha := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n && remaining > 0; i++ {
		a := math.Min(c, remaining)
		alpha[i] = a
		remaining -= a
	}
	// Gradient G_i = Σ_j α_j Q_ij.
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * q[i][j]
			}
		}
		grad[i] = s
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 200 * n
		if maxIter < 10000 {
			maxIter = 10000
		}
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-4
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		// Working-set selection (maximal violating pair): the objective
		// decreases by moving weight from the largest gradient among
		// α_j > 0 to the smallest gradient among α_i < C.
		i, j := -1, -1
		gi, gj := math.Inf(1), math.Inf(-1)
		for t := 0; t < n; t++ {
			if alpha[t] < c-1e-15 && grad[t] < gi {
				gi, i = grad[t], t
			}
			if alpha[t] > 1e-15 && grad[t] > gj {
				gj, j = grad[t], t
			}
		}
		if i < 0 || j < 0 || gj-gi < tol {
			break
		}
		// Optimal unconstrained step along e_i − e_j.
		den := q[i][i] + q[j][j] - 2*q[i][j]
		if den <= 1e-12 {
			den = 1e-12
		}
		delta := (gj - gi) / den
		if room := c - alpha[i]; delta > room {
			delta = room
		}
		if delta > alpha[j] {
			delta = alpha[j]
		}
		if delta <= 0 {
			break
		}
		alpha[i] += delta
		alpha[j] -= delta
		for t := 0; t < n; t++ {
			grad[t] += delta * (q[t][i] - q[t][j])
		}
	}
	// ρ: average decision value over margin support vectors
	// (0 < α < C); fall back to all support vectors at the bound.
	var rho float64
	var count int
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 && alpha[t] < c-1e-12 {
			rho += grad[t]
			count++
		}
	}
	if count == 0 {
		// All support vectors at the bound: ρ lies between the bound and
		// free gradients; use the midpoint of the extremes as libsvm does.
		lo, hi := math.Inf(1), math.Inf(-1)
		for t := 0; t < n; t++ {
			if alpha[t] > 1e-12 && grad[t] > hi {
				hi = grad[t]
			}
			if alpha[t] < c-1e-12 && grad[t] < lo {
				lo = grad[t]
			}
		}
		switch {
		case !math.IsInf(lo, 1) && !math.IsInf(hi, -1):
			rho = (lo + hi) / 2
			count = 1
		case !math.IsInf(hi, -1):
			rho = hi
			count = 1
		default:
			rho = lo
			count = 1
		}
	} else {
		rho /= float64(count)
	}
	// Keep only the support set for scoring.
	var sx [][]float64
	var sa []float64
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 {
			sx = append(sx, x[t])
			sa = append(sa, alpha[t])
		}
	}
	return &Model{kernel: kernel, supportX: sx, alpha: sa, rho: rho, dim: dim, Iterations: iter}, nil
}

// Decision returns f(x) = Σ α_i k(x_i, x) − ρ; negative values are
// outliers under the learned support region.
func (m *Model) Decision(xq []float64) (float64, error) {
	if len(xq) != m.dim {
		return 0, fmt.Errorf("ocsvm: query has %d features, want %d", len(xq), m.dim)
	}
	var s float64
	for i, sv := range m.supportX {
		s += m.alpha[i] * m.kernel.Eval(sv, xq)
	}
	return s - m.rho, nil
}

// Score returns the outlyingness ρ − Σ α k(x_i, x): higher means more
// outlying, matching the score convention used across this repository.
func (m *Model) Score(xq []float64) (float64, error) {
	d, err := m.Decision(xq)
	if err != nil {
		return 0, err
	}
	return -d, nil
}

// ScoreBatch scores every row of x.
func (m *Model) ScoreBatch(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	for i, xi := range x {
		s, err := m.Score(xi)
		if err != nil {
			return nil, fmt.Errorf("ocsvm: sample %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// SupportVectors returns the number of support vectors of the fitted model.
func (m *Model) SupportVectors() int { return len(m.supportX) }
