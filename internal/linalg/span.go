package linalg

import "fmt"

// SpanMatrix is an m×n matrix each of whose rows is zero outside one
// window of w consecutive columns. It stores, per row, the window's
// first column and its w values. A B-spline design matrix is one, with
// w the spline order (local support); w = n stores every row in full.
//
// The kernels below skip only the entries outside the windows. Each
// skipped term is a zero product of finite numbers, and each
// accumulator starts at +0, so it is never −0 and adding such a ±0
// leaves it unchanged. So every product is bitwise the dense product
// over the same entries, as long as the stored values and the vector
// operands are finite (DESIGN.md §6).
//
// MulVecInto and AtVecInto own their row loops, so a product is one
// call rather than one per row, and pick their body from the window
// width: a 4-wide window (a cubic B-spline, the default order) runs a
// written-out body, any other width the generic window loop. Both run
// the same products, added in the same order.
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

// MulVecInto writes sx into out: out[j] is row j's window times x,
// summed in column order from +0. len(x) must be the column count and
// len(out) the row count.
func (s *SpanMatrix) MulVecInto(x, out []float64) error {
	if len(x) != s.cols || len(out) != len(s.start) {
		return fmt.Errorf("linalg: mulvec %dx%d by vector %d into %d: %w", len(s.start), s.cols, len(x), len(out), ErrShape)
	}
	if s.w == 4 {
		for j, c := range s.start {
			v, xc := s.vals[4*j:4*j+4:4*j+4], x[c:c+4:c+4]
			sum := 0.0
			sum += v[0] * xc[0]
			sum += v[1] * xc[1]
			sum += v[2] * xc[2]
			sum += v[3] * xc[3]
			out[j] = sum
		}
		return nil
	}
	w := s.w
	for j, c := range s.start {
		v, xc := s.vals[j*w:(j+1)*w], x[c:c+w]
		var sum float64
		for r, vr := range v {
			sum += vr * xc[r]
		}
		out[j] = sum
	}
	return nil
}

// AtVecInto writes sᵀx into out: each row's window scaled by x[j] is
// added in row order, from +0, skipping the rows with x[j] == 0.
// len(x) must be the row count and len(out) the column count.
func (s *SpanMatrix) AtVecInto(x, out []float64) error {
	if len(x) != len(s.start) || len(out) != s.cols {
		return fmt.Errorf("linalg: atvec %dx%d by vector %d into %d: %w", len(s.start), s.cols, len(x), len(out), ErrShape)
	}
	clear(out)
	if s.w == 4 {
		for j, xj := range x {
			if xj == 0 {
				continue
			}
			c := s.start[j]
			v, dst := s.vals[4*j:4*j+4:4*j+4], out[c:c+4:c+4]
			dst[0] += v[0] * xj
			dst[1] += v[1] * xj
			dst[2] += v[2] * xj
			dst[3] += v[3] * xj
		}
		return nil
	}
	w := s.w
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		c := s.start[j]
		v, dst := s.vals[j*w:(j+1)*w], out[c:c+w]
		for r, vr := range v {
			dst[r] += vr * xj
		}
	}
	return nil
}

// GramBandInto writes the lower band of the Gram matrix sᵀs, of
// bandwidth k, into band in the storage NewBandCholesky factors:
// band[i*(k+1)+(j−i+k)] = (sᵀs)_ij for j in [i−k, i], +0 in the slots
// of columns before 0. Each row's window adds, in row order from +0,
// its products of a nonzero value with itself and the values to its
// right: the upper triangle of sᵀs, which holds the band's values by
// symmetry. The windows must be at most k+1 wide.
func (s *SpanMatrix) GramBandInto(k int, band []float64) error {
	n, w := s.cols, k+1
	if k < 0 || s.w > w || len(band) != n*w {
		return fmt.Errorf("linalg: gram band of %d-wide windows in %d columns into %d values with bandwidth %d: %w", s.w, n, len(band), k, ErrShape)
	}
	clear(band)
	for j, c := range s.start {
		row := s.vals[j*s.w : (j+1)*s.w]
		for a, va := range row {
			if va == 0 {
				continue
			}
			// (sᵀs)[c+b][c+a] sits at band[(c+b)*w + a−b+k].
			for b := a; b < len(row); b++ {
				band[(c+b)*w+a-b+k] += va * row[b]
			}
		}
	}
	return nil
}
