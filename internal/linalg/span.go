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
// MulVecInto, AtVecInto and ResidualSums own their row loops, so a
// product is one call rather than one per row; AtVecInto and
// ResidualSums take many vectors, so the smoother's Φᵀy, and its
// residual sums, of every curve on a grid are one call each. Each picks
// its body from the window width: a 4-wide window (a cubic B-spline,
// the default order) runs a written-out body, any other width the
// generic window loop. ResidualSums' 4-wide case also picks by CPU and
// column count: on amd64 with AVX2 a vector body takes a block's whole
// groups of four columns, one column per lane, and the Go body the
// rest. Every body runs the same products, added in the same order.
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

// AtVecInto writes sᵀx into out for every vector x of xs: out is the
// column count × len(xs) product row-major, the product with xs[c] in
// its column c (at out[i*len(xs)+c]). Each row's window scaled by x[j]
// is added in row order, from +0, skipping the rows with x[j] == 0. The
// vectors run one after another, each over every row, and the window a
// row adds into stays in registers while the rows' first column stays
// put (a B-spline design's rows advance it a column at a time), so the
// additions into one entry do not wait on memory; they are the same
// additions, in the same order. Every vector must hold one value per
// row.
func (s *SpanMatrix) AtVecInto(xs [][]float64, out []float64) error {
	m, n, cols := len(s.start), s.cols, len(xs)
	if len(out) != n*cols {
		return fmt.Errorf("linalg: atvec %dx%d by %d vectors into %d: %w", m, n, cols, len(out), ErrShape)
	}
	for _, x := range xs {
		if len(x) != m {
			return fmt.Errorf("linalg: atvec %dx%d by vector %d: %w", m, n, len(x), ErrShape)
		}
	}
	clear(out)
	if s.w == 4 {
		for i, x := range xs {
			at := -1 // the window in a0..a3: out[(at+r)*cols+i]
			var a0, a1, a2, a3 float64
			for j, c := range s.start {
				xj := x[j]
				if xj == 0 {
					continue
				}
				if c != at {
					if at >= 0 {
						out[at*cols+i], out[(at+1)*cols+i], out[(at+2)*cols+i], out[(at+3)*cols+i] = a0, a1, a2, a3
					}
					at = c
					a0, a1, a2, a3 = out[c*cols+i], out[(c+1)*cols+i], out[(c+2)*cols+i], out[(c+3)*cols+i]
				}
				v := s.vals[4*j : 4*j+4 : 4*j+4]
				a0 += v[0] * xj
				a1 += v[1] * xj
				a2 += v[2] * xj
				a3 += v[3] * xj
			}
			if at >= 0 {
				out[at*cols+i], out[(at+1)*cols+i], out[(at+2)*cols+i], out[(at+3)*cols+i] = a0, a1, a2, a3
			}
		}
		return nil
	}
	w := s.w
	for i, x := range xs {
		for j, c := range s.start {
			xj := x[j]
			if xj == 0 {
				continue
			}
			for r, vr := range s.vals[j*w : (j+1)*w] {
				out[(c+r)*cols+i] += vr * xj
			}
		}
	}
	return nil
}

// ResidualSums writes the residual sums of squares of the fits s·x to
// the columns of ys: x is the column count × B matrix row-major (column
// c at x[i*B+c]) and ys the row count × B one (ys[j*B+c]), B = len(rss),
// and with r_j = ys[j*B+c] − (s·x_c)_j, rss[c] = Σ_j r_j² and wss[c] =
// Σ_j (r_j/den[j])². (s·x_c)_j is row j's window times x_c, summed in
// column order from +0 as MulVecInto sums it, and both sums run in row
// order from +0, in registers. Each column's operations, and their
// order, are those of its sums alone. With 4-wide windows, on an amd64
// CPU with AVX2, the whole groups of four columns run a vector body,
// one column per lane (kernels_amd64.go); the Go body takes the other
// columns, in pairs that share each row's window and den[j]. den must
// hold one value per row.
func (s *SpanMatrix) ResidualSums(x, ys, den, rss, wss []float64) error {
	m, n, cols := len(s.start), s.cols, len(rss)
	if len(x) != n*cols || len(ys) != m*cols || len(den) != m || len(wss) != cols {
		return fmt.Errorf("linalg: residual sums of %dx%d by %d values against %d values with %d weights into %d and %d sums: %w", m, n, len(x), len(ys), len(den), cols, len(wss), ErrShape)
	}
	s.residualSums(x, ys, den, rss, wss, residualSumsVec(s, x, ys, den, rss, wss))
	return nil
}

// residualSums is ResidualSums' Go body, on the columns from `from`
// onward.
func (s *SpanMatrix) residualSums(x, ys, den, rss, wss []float64, from int) {
	n, cols := s.cols, len(rss)
	// The pair's coefficients, gathered out of x.
	var buf [128]float64
	cs := buf[:]
	if 2*n > len(buf) {
		cs = make([]float64, 2*n)
	}
	c0, c1 := cs[:n], cs[n:2*n]
	w := s.w
	c := from
	for ; c+1 < cols; c += 2 {
		for i := range c0 {
			c0[i], c1[i] = x[i*cols+c], x[i*cols+c+1]
		}
		var r0, r1, w0, w1 float64
		yj := c // row j's entry of column c in ys
		for j, st := range s.start {
			var f0, f1 float64
			if w == 4 {
				v, a0, a1 := s.vals[4*j:4*j+4:4*j+4], c0[st:st+4:st+4], c1[st:st+4:st+4]
				f0 += v[0] * a0[0]
				f1 += v[0] * a1[0]
				f0 += v[1] * a0[1]
				f1 += v[1] * a1[1]
				f0 += v[2] * a0[2]
				f1 += v[2] * a1[2]
				f0 += v[3] * a0[3]
				f1 += v[3] * a1[3]
			} else {
				for r, vr := range s.vals[j*w : (j+1)*w] {
					f0 += vr * c0[st+r]
					f1 += vr * c1[st+r]
				}
			}
			d := den[j]
			e0, e1 := ys[yj]-f0, ys[yj+1]-f1
			yj += cols
			r0 += e0 * e0
			r1 += e1 * e1
			q0, q1 := e0/d, e1/d
			w0 += q0 * q0
			w1 += q1 * q1
		}
		rss[c], wss[c], rss[c+1], wss[c+1] = r0, w0, r1, w1
	}
	if c < cols {
		for i := range c0 {
			c0[i] = x[i*cols+c]
		}
		var r0, w0 float64
		for j, st := range s.start {
			var f0 float64
			for r, vr := range s.vals[j*w : (j+1)*w] {
				f0 += vr * c0[st+r]
			}
			e0 := ys[j*cols+c] - f0
			r0 += e0 * e0
			q0 := e0 / den[j]
			w0 += q0 * q0
		}
		rss[c], wss[c] = r0, w0
	}
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
