// Package stats provides the descriptive and robust statistics shared by
// the smoothing, depth and detection algorithms: means, variances,
// medians, MAD and ranges, together with small deterministic
// random-sampling helpers.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs, or NaN when
// fewer than two values are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopVariance returns the population (1/n) variance, used where the paper's
// variance-like aggregation (Dir.out VO component) divides by n.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// Median returns the sample median of xs, or NaN for an empty slice.
// xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2])
}

// MADConsistency rescales the median absolute deviation so it estimates the
// standard deviation under a normal model (1/Φ⁻¹(3/4)).
const MADConsistency = 1.4826022185056018

// MAD returns the median absolute deviation around the median, scaled by
// MADConsistency so it is consistent for the normal standard deviation.
// It returns NaN for an empty slice.
func MAD(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, n)
	for i, v := range xs {
		dev[i] = math.Abs(v - med)
	}
	return MADConsistency * Median(dev)
}

// MinMax returns the smallest and largest values of xs. It returns
// (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
