package linalg

import "math"

// Dot returns the inner product of x and y. It panics on length mismatch,
// which always indicates a programming error in this repository.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: dot of vectors with different lengths")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dist2 returns the Euclidean distance between x and y.
func Dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: dist of vectors with different lengths")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SqDist2 returns the squared Euclidean distance between x and y.
func SqDist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: sqdist of vectors with different lengths")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}
