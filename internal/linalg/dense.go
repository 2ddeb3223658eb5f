// Package linalg provides the dense linear-algebra substrate used by the
// functional-data smoothing and outlier-detection algorithms in this
// repository: matrices and vectors, factorizations (banded Cholesky, QR)
// and the associated linear solvers.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine exists because a caller in
// internal/fda, internal/ocsvm or internal/depth needs it. Matrices are
// dense and row-major, except SpanMatrix, which keeps one window of
// consecutive columns per row: the form of a B-spline design.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Dense is a dense row-major matrix.
//
// The zero value is an empty 0x0 matrix; use NewDense to allocate one with a
// shape. Methods never alias receiver storage with their result unless the
// documentation says so.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r-by-c matrix of zeros. It panics if r or c is
// negative, mirroring the behaviour of make for negative lengths.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m * b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("linalg: mul %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("linalg: mulvec %dx%d by vector %d: %w", m.rows, m.cols, len(x), ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range mi {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and b have identical shape and entries within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense %dx%d [", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.data[i*m.cols+j])
		}
	}
	return s + "]"
}
