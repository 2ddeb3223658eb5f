package depth

import (
	"fmt"
	"math"
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
	shape
	train [][][]float64 // n × p × m
	times []float64
}

// FitFUNTA returns the FUNTA scorer of the reference curves train
// (n × p × m, m ≥ 2) on the grid times. times may be nil, in which case
// a unit-spaced grid is assumed.
func FitFUNTA(train [][][]float64, times []float64) (*FUNTA, error) {
	s, err := trainShape(train, 1, 2)
	if err != nil {
		return nil, err
	}
	if times != nil && len(times) != s.m {
		return nil, fmt.Errorf("depth: funta grid has %d times for %d points: %w", len(times), s.m, ErrDepth)
	}
	return &FUNTA{shape: s, train: train, times: times}, nil
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
	if err := f.check(sample); err != nil {
		return 0, err
	}
	var total float64
	var params int
	for k := 0; k < f.p; k++ {
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

// ScoreBatch scores every sample.
func (f *FUNTA) ScoreBatch(samples [][][]float64) ([]float64, error) {
	return scoreBatch(samples, f.Score)
}
