// Package fda implements the functional-data representation of Sec. 2 of
// the paper: raw discretely-sampled curves, their approximation as
// penalized basis expansions (Eq. 1–4), data-driven selection of the basis
// size and roughness penalty, and evaluation of the fitted functions and
// their derivatives (Eq. 2) on arbitrary grids.
package fda

import (
	"errors"
	"fmt"
	"math"
)

// ErrData reports malformed functional-data input.
var ErrData = errors.New("fda: invalid functional data")

// Sample is one multivariate functional datum: p parameters observed at a
// common set of measurement points. Values[k][j] is parameter k at
// Times[j]. The measurement points need not be uniformly spaced (the
// representation handles sparse sampling, per Sec. 2 of the paper), but
// they must be strictly increasing.
type Sample struct {
	Times  []float64
	Values [][]float64
}

// NewSample validates and wraps the given measurement points and values.
func NewSample(times []float64, values [][]float64) (Sample, error) {
	s := Sample{Times: times, Values: values}
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	return s, nil
}

// Dim returns the number of parameters p.
func (s Sample) Dim() int { return len(s.Values) }

// Len returns the number of measurement points m.
func (s Sample) Len() int { return len(s.Times) }

// Validate checks the structural invariants of the sample.
func (s Sample) Validate() error {
	if len(s.Times) == 0 {
		return fmt.Errorf("fda: sample has no measurement points: %w", ErrData)
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("fda: sample has no parameters: %w", ErrData)
	}
	for j, tv := range s.Times {
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return fmt.Errorf("fda: measurement point %d is not finite: %w", j, ErrData)
		}
	}
	for j := 1; j < len(s.Times); j++ {
		if !(s.Times[j] > s.Times[j-1]) {
			return fmt.Errorf("fda: measurement points not strictly increasing at %d: %w", j, ErrData)
		}
	}
	for k, v := range s.Values {
		if len(v) != len(s.Times) {
			return fmt.Errorf("fda: parameter %d has %d values for %d points: %w", k, len(v), len(s.Times), ErrData)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("fda: parameter %d has non-finite value at point %d: %w", k, j, ErrData)
			}
		}
	}
	return nil
}

// Dataset is a collection of MFD samples with optional binary labels
// (1 = outlier, 0 = inlier) used only for evaluation, never during fitting,
// matching the unsupervised protocol of Sec. 4.2.
type Dataset struct {
	Samples []Sample
	Labels  []int
}

// Len returns the number of samples n.
func (d Dataset) Len() int { return len(d.Samples) }

// Validate checks every sample plus the label shape. Labels may be nil.
func (d Dataset) Validate() error {
	if len(d.Samples) == 0 {
		return fmt.Errorf("fda: empty dataset: %w", ErrData)
	}
	p := d.Samples[0].Dim()
	for i, s := range d.Samples {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("fda: sample %d: %w", i, err)
		}
		if s.Dim() != p {
			return fmt.Errorf("fda: sample %d has %d parameters, want %d: %w", i, s.Dim(), p, ErrData)
		}
	}
	if d.Labels != nil && len(d.Labels) != len(d.Samples) {
		return fmt.Errorf("fda: %d labels for %d samples: %w", len(d.Labels), len(d.Samples), ErrData)
	}
	return nil
}

// Subset returns the dataset restricted to the given sample indices,
// carrying labels along when present. Sample contents are shared, not
// copied.
func (d Dataset) Subset(idx []int) Dataset {
	out := Dataset{Samples: make([]Sample, len(idx))}
	if d.Labels != nil {
		out.Labels = make([]int, len(idx))
	}
	for i, j := range idx {
		out.Samples[i] = d.Samples[j]
		if d.Labels != nil {
			out.Labels[i] = d.Labels[j]
		}
	}
	return out
}

// Domain returns the tightest interval [lo, hi] containing every sample's
// measurement points.
func (d Dataset) Domain() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range d.Samples {
		if len(s.Times) == 0 {
			continue
		}
		if s.Times[0] < lo {
			lo = s.Times[0]
		}
		if s.Times[len(s.Times)-1] > hi {
			hi = s.Times[len(s.Times)-1]
		}
	}
	return lo, hi
}

// UniformGrid returns m equally spaced points spanning [lo, hi].
func UniformGrid(lo, hi float64, m int) []float64 {
	if m <= 0 {
		return nil
	}
	if m == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, m)
	step := (hi - lo) / float64(m-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[m-1] = hi
	return out
}

// Augment returns a new dataset where each sample gains extra parameters
// computed from its existing ones — the paper augments the univariate ECG
// series to a bivariate MFD with f(x) = x² (Sec. 4.1). The transform
// receives the parameter values of one sample and returns the additional
// parameters.
func Augment(d Dataset, transform func(values [][]float64) [][]float64) Dataset {
	out := Dataset{Samples: make([]Sample, len(d.Samples)), Labels: d.Labels}
	for i, s := range d.Samples {
		extra := transform(s.Values)
		vals := make([][]float64, 0, len(s.Values)+len(extra))
		vals = append(vals, s.Values...)
		vals = append(vals, extra...)
		out.Samples[i] = Sample{Times: s.Times, Values: vals}
	}
	return out
}

// SquareAugment is the paper's UFD→MFD augmentation: append the square of
// each existing parameter.
func SquareAugment(values [][]float64) [][]float64 {
	extra := make([][]float64, len(values))
	for k, v := range values {
		sq := make([]float64, len(v))
		for j, x := range v {
			sq[j] = x * x
		}
		extra[k] = sq
	}
	return extra
}
