package linalg

import "fmt"

// SpanMatrix is an m×n matrix each of whose rows is zero outside one
// window of w consecutive columns. It stores, per row, the window's
// first column and its w values. A B-spline design matrix is one, with
// w the spline order (local support); w = n stores every row in full.
//
// The products below skip only the entries outside the windows. Each
// skipped term is a zero product of finite numbers, and each
// accumulator starts at +0, so it is never −0 and adding such a ±0
// leaves it unchanged. So every product is bitwise the dense product
// over the same entries, as long as the stored values and the vector
// operands are finite (DESIGN.md §6).
type SpanMatrix struct {
	cols, w int
	start   []int
	vals    []float64 // row-major, len(start)*w
}

// NewSpanMatrix wraps the windows of an m×n matrix, m = len(start):
// row j holds vals[j*w : (j+1)*w] in columns start[j] onward. The
// slices are retained, not copied. It panics when a window leaves the
// matrix or vals does not hold m windows, a programming error.
func NewSpanMatrix(n, w int, start []int, vals []float64) *SpanMatrix {
	if w < 0 || w > n || len(vals) != len(start)*w {
		panic(fmt.Sprintf("linalg: %d values for %d windows of width %d in %d columns", len(vals), len(start), w, n))
	}
	for j, s := range start {
		if s < 0 || s+w > n {
			panic(fmt.Sprintf("linalg: row %d window [%d, %d) outside %d columns", j, s, s+w, n))
		}
	}
	return &SpanMatrix{cols: n, w: w, start: start, vals: vals}
}

// Dims returns the row and column counts.
func (s *SpanMatrix) Dims() (r, c int) { return len(s.start), s.cols }

// Row returns row j's window: its first column and its values,
// aliasing the matrix storage. Every other entry of the row is +0.
func (s *SpanMatrix) Row(j int) (start int, vals []float64) {
	return s.start[j], s.vals[j*s.w : (j+1)*s.w]
}

// Dot returns the inner product of row j with x (length n), summed
// over the row's window in column order.
func (s *SpanMatrix) Dot(j int, x []float64) float64 {
	start, row := s.Row(j)
	x = x[start : start+len(row)]
	var sum float64
	for r, v := range row {
		sum += v * x[r]
	}
	return sum
}

// AtVec returns sᵀx.
func (s *SpanMatrix) AtVec(x []float64) ([]float64, error) {
	if len(x) != len(s.start) {
		return nil, fmt.Errorf("linalg: atvec %dx%d by vector %d: %w", len(s.start), s.cols, len(x), ErrShape)
	}
	out := make([]float64, s.cols)
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		start, row := s.Row(j)
		dst := out[start : start+len(row)]
		for r, v := range row {
			dst[r] += v * xj
		}
	}
	return out, nil
}

// AtA returns the Gram matrix sᵀs (n×n), accumulating each row's
// window into the upper triangle and then mirroring it.
func (s *SpanMatrix) AtA() *Dense {
	n := s.cols
	out := NewDense(n, n)
	for j := range s.start {
		start, row := s.Row(j)
		for a, va := range row {
			if va == 0 {
				continue
			}
			oi := out.data[(start+a)*n+start : (start+a+1)*n]
			for b := a; b < len(row); b++ {
				oi[b] += va * row[b]
			}
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			out.data[i*n+j] = out.data[j*n+i]
		}
	}
	return out
}
