package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n*n storage
}

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns ErrSingular when a pivot
// is not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("linalg: cholesky of %dx%d: %w", r, c, ErrShape)
	}
	n := r
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li := l[i*n:]
			lj := l[j*n:]
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linalg: cholesky pivot %d = %g: %w", i, sum, ErrSingular)
				}
				l[i*n+j] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve solves A x = b for x.
func (ch *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, ch.n)
	if err := ch.SolveInto(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into the caller-provided x (length n), the
// allocation-free form the smoothing hot path uses with per-worker
// scratch buffers. x must not alias b.
func (ch *Cholesky) SolveInto(b, x []float64) error {
	if len(b) != ch.n {
		return fmt.Errorf("linalg: cholesky solve rhs %d want %d: %w", len(b), ch.n, ErrShape)
	}
	if len(x) != ch.n {
		return fmt.Errorf("linalg: cholesky solve dst %d want %d: %w", len(x), ch.n, ErrShape)
	}
	n := ch.n
	// Forward substitution L y = b, with y stored in x.
	for i := 0; i < n; i++ {
		s := b[i]
		li := ch.l[i*n:]
		for k := 0; k < i; k++ {
			s -= li[k] * x[k]
		}
		x[i] = s / li[i]
	}
	// Back substitution Lᵀ x = y, in place.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= ch.l[k*n+i] * x[k]
		}
		x[i] = s / ch.l[i*n+i]
	}
	return nil
}

// HatDiag writes h[j] = φⱼᵀ A⁻¹ φⱼ for every row φⱼ of phi (m×n) into
// h (length m): one SolveInto and one Dot per dense row.
// BandCholesky.HatDiag is the banded counterpart that skips each row's
// zeros.
func (ch *Cholesky) HatDiag(phi *SpanMatrix, h []float64) error {
	m, c := phi.Dims()
	if c != ch.n {
		return fmt.Errorf("linalg: hat diagonal of %dx%d design, factor is %d: %w", m, c, ch.n, ErrShape)
	}
	if len(h) != m {
		return fmt.Errorf("linalg: hat diagonal dst %d want %d: %w", len(h), m, ErrShape)
	}
	row := make([]float64, 2*ch.n)
	row, sol := row[:ch.n], row[ch.n:]
	for j := range h {
		start, vals := phi.Row(j)
		copy(row[start:], vals)
		if err := ch.SolveInto(row, sol); err != nil {
			return err
		}
		h[j] = Dot(row, sol)
		clear(row[start : start+len(vals)])
	}
	return nil
}

// LU holds an LU factorization with partial pivoting: P A = L U.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above diagonal)
	piv  []int
	sign int
}

// NewLU factors a square matrix with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("linalg: lu of %dx%d: %w", r, c, ErrShape)
	}
	n := r
	lu := make([]float64, n*n)
	copy(lu, a.data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot selection.
		p, mx := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("linalg: lu pivot %d is zero: %w", k, ErrSingular)
		}
		if p != k {
			rowP := lu[p*n : (p+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu[i*n:]
			rowK := lu[k*n:]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A x = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: lu solve rhs %d want %d: %w", len(b), f.n, ErrShape)
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward: L y = P b (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		ri := f.lu[i*n:]
		for k := 0; k < i; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s
	}
	// Back: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := f.lu[i*n:]
		for k := i + 1; k < n; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s / ri[i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveSPD solves the symmetric positive-definite system a x = b via
// Cholesky, falling back to LU with a tiny ridge when the Cholesky pivot
// fails (which happens for penalty matrices that are only semi-definite).
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err == nil {
		return ch.Solve(b)
	}
	n, _ := a.Dims()
	ridge := a.Clone()
	eps := 1e-10 * (1 + a.MaxAbs())
	for i := 0; i < n; i++ {
		ridge.Set(i, i, ridge.At(i, i)+eps)
	}
	lu, err := NewLU(ridge)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}
