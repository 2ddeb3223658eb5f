package ocsvm

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// TuneResult reports the cross-validation outcome for one candidate.
type TuneResult struct {
	Nu float64
	// Kernel is the kernel the candidate was evaluated with.
	Kernel Kernel
	// RejectRate is the mean held-out fraction of points with negative
	// decision value across folds.
	RejectRate float64
	// Objective is |RejectRate − Nu|, the self-consistency criterion:
	// for a well-chosen ν the rejected fraction tracks ν.
	Objective float64
}

// TuneNu selects ν by k-fold cross-validation on the (unlabeled) training
// set, the procedure the paper applies (Sec. 4.3: "we tune it on the
// training set with a 5-fold cross validation", ν acting as an estimate of
// the contamination level). For each candidate the model is fitted on
// k−1 folds and the rejection rate on the held-out fold is compared with
// ν; the candidate minimising the gap wins. The paper observes — and this
// criterion reproduces — that the tuning becomes unreliable as the true
// contamination grows.
func TuneNu(x [][]float64, candidates []float64, folds int, kernel Kernel, seed int64) (best float64, results []TuneResult, err error) {
	if kernel == nil {
		kernel = RBF{Gamma: GammaScale(x)}
	}
	grid := make([]Params, 0, len(candidates))
	if len(candidates) == 0 {
		candidates = []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	}
	for _, nu := range candidates {
		grid = append(grid, Params{Nu: nu, Kernel: kernel})
	}
	bestP, results, err := TuneGrid(x, grid, folds, seed)
	return bestP.Nu, results, err
}

// Params is one (ν, kernel) candidate of a tuning grid.
type Params struct {
	Nu     float64
	Kernel Kernel
}

// TuneGrid evaluates every (ν, kernel) candidate with k-fold
// cross-validation under the same self-consistency criterion as TuneNu
// and returns the winner. It generalises the paper's ν search to the
// joint (ν, γ) search a practitioner runs when the bandwidth heuristic is
// in doubt.
func TuneGrid(x [][]float64, grid []Params, folds int, seed int64) (best Params, results []TuneResult, err error) {
	n := len(x)
	if n < 2 {
		return Params{}, nil, fmt.Errorf("ocsvm: tuning needs >= 2 samples, got %d: %w", n, ErrOptions)
	}
	if len(grid) == 0 {
		return Params{}, nil, fmt.Errorf("ocsvm: empty tuning grid: %w", ErrOptions)
	}
	if folds < 2 {
		folds = 5
	}
	if folds > n {
		folds = n
	}
	rng := stats.NewRand(seed, 0)
	perm := rng.Perm(n)
	results = make([]TuneResult, 0, len(grid))
	bestObj := math.Inf(1)
	for _, cand := range grid {
		if cand.Nu <= 0 || cand.Nu > 1 {
			return Params{}, nil, fmt.Errorf("ocsvm: candidate nu = %g outside (0, 1]: %w", cand.Nu, ErrOptions)
		}
		var rejected, total int
		for f := 0; f < folds; f++ {
			lo := f * n / folds
			hi := (f + 1) * n / folds
			if hi <= lo {
				continue
			}
			train := make([][]float64, 0, n-(hi-lo))
			test := make([][]float64, 0, hi-lo)
			for i, p := range perm {
				if i >= lo && i < hi {
					test = append(test, x[p])
				} else {
					train = append(train, x[p])
				}
			}
			if len(train) == 0 {
				continue
			}
			m, err := Options{Nu: cand.Nu, Kernel: cand.Kernel}.Fit(train)
			if err != nil {
				return Params{}, nil, fmt.Errorf("ocsvm: tuning fold %d: %w", f, err)
			}
			scores, err := m.ScoreBatch(test)
			if err != nil {
				return Params{}, nil, err
			}
			for _, s := range scores {
				if s > 0 { // a negative decision value
					rejected++
				}
			}
			total += len(scores)
		}
		rate := 0.0
		if total > 0 {
			rate = float64(rejected) / float64(total)
		}
		obj := math.Abs(rate - cand.Nu)
		results = append(results, TuneResult{Nu: cand.Nu, Kernel: cand.Kernel, RejectRate: rate, Objective: obj})
		if obj < bestObj {
			bestObj = obj
			best = cand
		}
	}
	return best, results, nil
}
