package depth

import "fmt"

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
	shape
	agg  Aggregation
	dirs [][]float64
	refs []pointwiseReference
}

// FitIntegratedDepth builds the pointwise references of the training
// samples train (n × p × m) for a pointwise-projection-depth scorer with
// the given aggregation.
func FitIntegratedDepth(train [][][]float64, agg Aggregation, opt ProjectionOptions) (*IntegratedDepth, error) {
	s, err := trainShape(train, 1, 1)
	if err != nil {
		return nil, err
	}
	dirs := directionSet(s.p, opt)
	return &IntegratedDepth{shape: s, agg: agg, dirs: dirs, refs: buildReference(train, s, dirs)}, nil
}

// Score returns 1 − aggregated depth, so higher means more outlying.
func (d *IntegratedDepth) Score(sample [][]float64) (float64, error) {
	if err := d.check(sample); err != nil {
		return 0, err
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
	return scoreBatch(samples, d.Score)
}
