package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/fda"
)

// FunctionalScorer is the contract of the fitted depth-based baselines
// (internal/depth): they consume MFD samples discretised on a common grid
// as p×m matrices, unlike Detector which consumes flat feature vectors.
type FunctionalScorer interface {
	// ScoreBatch returns one outlyingness score per sample.
	ScoreBatch(samples [][][]float64) ([]float64, error)
}

// PipelineMethod adapts a pipeline template to the eval.Method contract:
// every repetition builds a fresh pipeline (so stochastic detectors are
// re-seeded) and runs Fit/Score.
type PipelineMethod struct {
	// MethodName is the label in result tables, e.g. "iFor(Curvmap)".
	MethodName string
	// Build constructs the pipeline for one repetition with the given
	// seed.
	Build func(seed int64) (*Pipeline, error)
}

// Name implements eval.Method.
func (m PipelineMethod) Name() string { return m.MethodName }

// Run implements eval.Method.
func (m PipelineMethod) Run(train, test fda.Dataset, seed int64) ([]float64, error) {
	p, err := m.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", m.MethodName, err)
	}
	if err := p.Fit(train); err != nil {
		return nil, fmt.Errorf("core: fit %s: %w", m.MethodName, err)
	}
	return p.Score(test)
}

// DepthMethod adapts a depth baseline's fit to the eval.Method
// contract. The raw measurements are passed to the baseline on a common
// grid, as the paper feeds the MFD directly to FUNTA and Dir.out.
type DepthMethod struct {
	// MethodName is the label in result tables.
	MethodName string
	// Fit builds the scorer for one repetition from the training
	// samples (n × p × m) on the common grid.
	Fit func(seed int64, train [][][]float64) (FunctionalScorer, error)
}

// Name implements eval.Method.
func (m DepthMethod) Name() string { return m.MethodName }

// Run implements eval.Method.
func (m DepthMethod) Run(train, test fda.Dataset, seed int64) ([]float64, error) {
	lo, hi := train.Domain()
	grid := commonGrid(train, test)
	trainVals, err := GridValues(train, grid, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: %s train grid: %w", m.MethodName, err)
	}
	testVals, err := GridValues(test, grid, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: %s test grid: %w", m.MethodName, err)
	}
	s, err := m.Fit(seed, trainVals)
	if err != nil {
		return nil, fmt.Errorf("core: fit %s: %w", m.MethodName, err)
	}
	return s.ScoreBatch(testVals)
}

// commonGrid returns the shared measurement grid when every sample of both
// datasets uses identical times, and otherwise a uniform grid of the
// median sample length.
func commonGrid(train, test fda.Dataset) []float64 {
	ref := train.Samples[0].Times
	same := true
	check := func(d fda.Dataset) {
		for _, s := range d.Samples {
			if len(s.Times) != len(ref) {
				same = false
				return
			}
			for j, t := range s.Times {
				//mfodlint:allow floateq grid-identity test: the shared-design fast path requires bitwise-equal time grids; near-equal grids must take the general path
				if t != ref[j] {
					same = false
					return
				}
			}
		}
	}
	check(train)
	if same {
		check(test)
	}
	if same {
		out := make([]float64, len(ref))
		copy(out, ref)
		return out
	}
	lo, hi := train.Domain()
	return fda.UniformGrid(lo, hi, len(ref))
}

// GridValues resamples every sample of d onto the grid by linear
// interpolation (exact when the grid equals the sample's own times),
// returning n × p × m values for the depth baselines.
func GridValues(d fda.Dataset, grid []float64, lo, hi float64) ([][][]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	out := make([][][]float64, d.Len())
	for i, s := range d.Samples {
		vals := make([][]float64, s.Dim())
		for k := 0; k < s.Dim(); k++ {
			vals[k] = interpLinear(s.Times, s.Values[k], grid)
		}
		out[i] = vals
	}
	return out, nil
}

// interpLinear evaluates the piecewise-linear interpolant of (xs, ys) at
// each query point, clamping outside the data range.
func interpLinear(xs, ys, queries []float64) []float64 {
	out := make([]float64, len(queries))
	for i, q := range queries {
		switch {
		case q <= xs[0]:
			out[i] = ys[0]
		case q >= xs[len(xs)-1]:
			out[i] = ys[len(ys)-1]
		default:
			// Binary search for the bracketing interval.
			lo, hi := 0, len(xs)-1
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if xs[mid] <= q {
					lo = mid
				} else {
					hi = mid
				}
			}
			frac := (q - xs[lo]) / (xs[hi] - xs[lo])
			out[i] = ys[lo]*(1-frac) + ys[hi]*frac
		}
	}
	return out
}

// RankNormalize maps scores to (rank+0.5)/n ∈ (0, 1) with midranks for
// ties, making heterogeneous detector outputs commensurable before
// ensemble averaging.
func RankNormalize(scores []float64) []float64 {
	n := len(scores)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	for i := 0; i < n; {
		j := i
		//mfodlint:allow floateq tie-group detection over one computed slice: ties are exact duplicates; a tolerance would merge near-ties and shift midranks
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := (float64(i+j)/2 + 0.5) / float64(n)
		for k := i; k <= j; k++ {
			out[idx[k]] = mid
		}
		i = j + 1
	}
	return out
}

// NaNGuard returns an error when any score is NaN or infinite; detectors
// must produce finite outlyingness.
func NaNGuard(scores []float64) error {
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("core: non-finite score %g at %d: %w", s, i, ErrPipeline)
		}
	}
	return nil
}
