package depth

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// FUNTA is the functional tangential angle pseudo-depth of Kuhnt & Rehage
// (2016): the outlyingness of a curve is the average intersection angle it
// forms with the other curves at their crossing points. Shape outliers cut
// across the bundle at steep angles and receive large scores; curves that
// never cross (pure shifts) accumulate no angles — which is exactly the
// blindness to isolated/shift outliers the paper exploits in its
// comparison (Sec. 1.2, 4.3).
//
// Multivariate samples are handled as in the paper's description: the
// angles are averaged "over both their number and the parameters".
type FUNTA struct {
	train [][][]float64 // n × p × m
	times []float64
	p, m  int
}

// NewFUNTA returns an unfitted FUNTA scorer. times may be nil, in which
// case a unit-spaced grid is assumed.
func NewFUNTA(times []float64) *FUNTA { return &FUNTA{times: times} }

// Fit memorises the reference curves.
func (f *FUNTA) Fit(train [][][]float64) error {
	if len(train) == 0 {
		return fmt.Errorf("depth: funta empty training set: %w", ErrNotFitted)
	}
	p := len(train[0])
	if p == 0 {
		return fmt.Errorf("depth: funta zero-parameter samples: %w", ErrDepth)
	}
	m := len(train[0][0])
	if m < 2 {
		return fmt.Errorf("depth: funta needs >= 2 grid points, got %d: %w", m, ErrDepth)
	}
	for i, s := range train {
		if len(s) != p {
			return fmt.Errorf("depth: funta sample %d has %d parameters, want %d: %w", i, len(s), p, ErrDepth)
		}
		for k := range s {
			if len(s[k]) != m {
				return fmt.Errorf("depth: funta sample %d parameter %d has %d points, want %d: %w", i, k, len(s[k]), m, ErrDepth)
			}
		}
	}
	if f.times != nil && len(f.times) != m {
		return fmt.Errorf("depth: funta grid has %d times for %d points: %w", len(f.times), m, ErrDepth)
	}
	f.train = train
	f.p = p
	f.m = m
	return nil
}

// step returns the grid spacing before index j+1.
func (f *FUNTA) step(j int) float64 {
	if f.times == nil {
		return 1
	}
	return f.times[j+1] - f.times[j]
}

// crossingAngles accumulates the intersection angles between curves a and
// b (both length m): wherever the difference a−b changes sign inside a
// grid interval, the angle between the two local secant lines is recorded.
func (f *FUNTA) crossingAngles(a, b []float64) (sum float64, count int) {
	for j := 0; j+1 < f.m; j++ {
		d0 := a[j] - b[j]
		d1 := a[j+1] - b[j+1]
		// A crossing happens when the difference changes sign strictly, or
		// touches zero at the right endpoint of the interval.
		if d0 == 0 && d1 == 0 {
			continue // overlapping segments: no transversal intersection
		}
		if d0*d1 > 0 {
			continue
		}
		h := f.step(j)
		sa := (a[j+1] - a[j]) / h
		sb := (b[j+1] - b[j]) / h
		theta := math.Abs(math.Atan(sa) - math.Atan(sb))
		sum += theta
		count++
	}
	return sum, count
}

// Score returns the FUNTA outlyingness of a sample against the training
// curves: the mean intersection angle (radians, normalised by π/2 into
// [0, 1]) over all crossings with all training curves and all parameters.
// A sample with no crossings at all scores 0 — apparently deep.
func (f *FUNTA) Score(sample [][]float64) (float64, error) {
	if f.train == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != f.p {
		return 0, fmt.Errorf("depth: funta sample has %d parameters, want %d: %w", len(sample), f.p, ErrDepth)
	}
	var total float64
	var params int
	for k := 0; k < f.p; k++ {
		if len(sample[k]) != f.m {
			return 0, fmt.Errorf("depth: funta sample parameter %d has %d points, want %d: %w", k, len(sample[k]), f.m, ErrDepth)
		}
		var sum float64
		var count int
		for _, ref := range f.train {
			s, c := f.crossingAngles(sample[k], ref[k])
			sum += s
			count += c
		}
		if count > 0 {
			total += (sum / float64(count)) / (math.Pi / 2)
			params++
		}
	}
	if params == 0 {
		return 0, nil
	}
	return total / float64(params), nil
}

// ScoreBatch scores every sample. Samples fan out over the shared
// bounded pool: Score only reads the memorised training curves and each
// result is written to its own slot, so the output is identical to the
// sequential loop.
func (f *FUNTA) ScoreBatch(samples [][][]float64) ([]float64, error) {
	out := make([]float64, len(samples))
	errs := make([]error, len(samples))
	parallel.For(len(samples), 0, func(_, i int) {
		v, err := f.Score(samples[i])
		if err != nil {
			errs[i] = fmt.Errorf("depth: funta sample %d: %w", i, err)
			return
		}
		out[i] = v
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}
