package depth

import (
	"fmt"
)

// Aggregation selects how pointwise depth scores are combined into a
// sample score (Sec. 1.2: the integral average masks isolated outliers —
// issue (2) — which the infimum aggregation repairs).
type Aggregation int

// Supported aggregations of pointwise depths.
const (
	// Integral averages the pointwise depths over the grid (the classical
	// MFD depth extension of Claeskens et al.).
	Integral Aggregation = iota
	// Infimum takes the minimum pointwise depth, sensitive to isolated
	// outliers that the average washes out.
	Infimum
)

// String implements fmt.Stringer.
func (a Aggregation) String() string {
	switch a {
	case Integral:
		return "integral"
	case Infimum:
		return "infimum"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// IntegratedDepth is the classical depth-based MFD outlier detector: a
// multivariate depth (projection depth here) applied pointwise in R^p and
// aggregated over the grid. It exists in this repository both as a
// baseline and as the concrete illustration of the issues the paper lists
// in Sec. 1.2.
type IntegratedDepth struct {
	opt  ProjectionOptions
	agg  Aggregation
	dirs [][]float64
	refs []pointwiseReference
	p, m int
}

// NewIntegratedDepth returns an unfitted pointwise-projection-depth scorer
// with the given aggregation.
func NewIntegratedDepth(agg Aggregation, opt ProjectionOptions) *IntegratedDepth {
	return &IntegratedDepth{opt: opt, agg: agg}
}

// Fit builds the pointwise references.
func (d *IntegratedDepth) Fit(train [][][]float64) error {
	if len(train) == 0 {
		return fmt.Errorf("depth: integrated depth empty training set: %w", ErrNotFitted)
	}
	p := len(train[0])
	d.dirs = directionSet(p, d.opt)
	refs, err := buildReference(train, d.dirs)
	if err != nil {
		return err
	}
	d.refs = refs
	d.p = p
	d.m = len(train[0][0])
	return nil
}

// Score returns 1 − aggregated depth, so higher means more outlying.
func (d *IntegratedDepth) Score(sample [][]float64) (float64, error) {
	if d.refs == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != d.p {
		return 0, fmt.Errorf("depth: sample has %d parameters, want %d: %w", len(sample), d.p, ErrDepth)
	}
	for k := range sample {
		if len(sample[k]) != d.m {
			return 0, fmt.Errorf("depth: sample parameter %d has %d points, want %d: %w", k, len(sample[k]), d.m, ErrDepth)
		}
	}
	x := make([]float64, d.p)
	var sum float64
	min := 1.0
	for j := 0; j < d.m; j++ {
		for k := 0; k < d.p; k++ {
			x[k] = sample[k][j]
		}
		pd := ProjectionDepth(sdoAt(x, d.refs[j], d.dirs))
		sum += pd
		if pd < min {
			min = pd
		}
	}
	switch d.agg {
	case Infimum:
		return 1 - min, nil
	default:
		return 1 - sum/float64(d.m), nil
	}
}

// ScoreBatch scores every sample.
func (d *IntegratedDepth) ScoreBatch(samples [][][]float64) ([]float64, error) {
	out := make([]float64, len(samples))
	for i, s := range samples {
		v, err := d.Score(s)
		if err != nil {
			return nil, fmt.Errorf("depth: sample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
