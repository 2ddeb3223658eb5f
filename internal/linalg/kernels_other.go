//go:build !amd64

package linalg

// Off amd64 there are no vector bodies: the Go bodies take every
// column.

func residualSumsVec(s *SpanMatrix, x, ys, den, rss, wss []float64) int { return 0 }

func forward3Vec(l, b, x []float64, cols int) int { return 0 }

func back3Vec(l, x []float64, cols int) int { return 0 }
