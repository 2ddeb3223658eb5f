package core

import (
	"fmt"

	"repro/internal/fda"
)

// DerivAugmentedDepthMethod is DepthMethod with the Sec. 1.2 work-around
// applied first: the MFD is augmented with smoothed derivative channels of
// the given orders before the depth baseline sees it. It measures the
// "add derivatives as supplementary parameters" alternative the paper
// argues against (more computation, more complex analysis) so the
// trade-off against the geometric mapping is quantified rather than
// asserted.
type DerivAugmentedDepthMethod struct {
	// MethodName is the label in result tables.
	MethodName string
	// Orders are the derivative orders appended (e.g. []int{1, 2}).
	Orders []int
	// Smooth configures the smoother that produces the derivatives.
	Smooth fda.Options
	// Fit builds the depth scorer for one repetition from the augmented
	// training samples (n × p × m) on the common grid.
	Fit func(seed int64, train [][][]float64) (FunctionalScorer, error)
}

// Name implements eval.Method.
func (m DerivAugmentedDepthMethod) Name() string { return m.MethodName }

// Run implements eval.Method.
func (m DerivAugmentedDepthMethod) Run(train, test fda.Dataset, seed int64) ([]float64, error) {
	opt := m.Smooth
	if !opt.HasDomain() {
		opt.Lo, opt.Hi = train.Domain()
	}
	augTrain, err := fda.AugmentWithDerivatives(train, opt, m.Orders)
	if err != nil {
		return nil, fmt.Errorf("core: %s train augmentation: %w", m.MethodName, err)
	}
	augTest, err := fda.AugmentWithDerivatives(test, opt, m.Orders)
	if err != nil {
		return nil, fmt.Errorf("core: %s test augmentation: %w", m.MethodName, err)
	}
	inner := DepthMethod{MethodName: m.MethodName, Fit: m.Fit}
	return inner.Run(augTrain, augTest, seed)
}
