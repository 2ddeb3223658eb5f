package linalg

import (
	"fmt"
	"math"
)

// BandCholesky is the Cholesky factorization of a symmetric
// positive-definite *band* matrix with bandwidth k (A[i][j] = 0 whenever
// |i−j| > k), stored compactly: row i keeps only the k+1 entries
// A[i][i−k..i]. B-spline normal-equation matrices ΦᵀΦ + λR have exactly
// this structure with k = order − 1, so factoring them costs O(n·k²)
// instead of O(n³) and each solve O(n·k) instead of O(n²).
type BandCholesky struct {
	n, k int
	// l[i*(k+1)+d] holds L[i][i−k+d] for d = 0..k (d = k is the diagonal).
	l []float64
}

// Bandwidth returns the smallest k such that a[i][j] == 0 whenever
// |i−j| > k. For structurally banded matrices (spline Gram and penalty
// matrices) this recovers the analytic bandwidth.
func Bandwidth(a *Dense) int {
	n, _ := a.Dims()
	k := 0
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := 0; j < n; j++ {
			if row[j] != 0 {
				if d := i - j; d > k {
					k = d
				} else if d := j - i; d > k {
					k = d
				}
			}
		}
	}
	return k
}

// NewBandCholesky factors in place the symmetric positive-definite n×n
// matrix A of bandwidth k whose lower band band holds row by row:
// band[i*(k+1)+d] = A[i][i−k+d] for d = 0..k, where the slots with
// i−k+d < 0 are never read. The factor keeps band as its storage and
// overwrites it with L; a failed factorization leaves it partly
// overwritten. A bandwidth of n−1 or more stores the whole lower
// triangle and runs the dense Cholesky loops term for term. It returns
// ErrSingular when a pivot is not strictly positive.
func NewBandCholesky(n, k int, band []float64) (*BandCholesky, error) {
	if k < 0 {
		return nil, fmt.Errorf("linalg: negative bandwidth %d: %w", k, ErrShape)
	}
	w := k + 1
	if len(band) != n*w {
		return nil, fmt.Errorf("linalg: band cholesky of %d values, want %d rows of %d: %w", len(band), n, w, ErrShape)
	}
	l := band
	// band(i, j) accesses L[i][j] for j in [i−k, i].
	idx := func(i, j int) int { return i*w + (j - i + k) }
	for i := 0; i < n; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			sum := l[idx(i, j)]
			// Σ_m L[i][m]·L[j][m] over the overlap of both bands.
			mLo := lo
			if j-k > mLo {
				mLo = j - k
			}
			for m := mLo; m < j; m++ {
				sum -= l[idx(i, m)] * l[idx(j, m)]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linalg: band cholesky pivot %d = %g: %w", i, sum, ErrSingular)
				}
				l[idx(i, j)] = math.Sqrt(sum)
			} else {
				l[idx(i, j)] = sum / l[idx(j, j)]
			}
		}
	}
	return &BandCholesky{n: n, k: k, l: l}, nil
}

// Solve solves A x = b in O(n·k).
func (bc *BandCholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, bc.n)
	if err := bc.SolveInto(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b in O(n·k) per right-hand side into the
// caller-provided x, the allocation-free form the smoothing hot path
// uses with per-worker scratch buffers. b holds one right-hand side, or
// the n×c matrix of c of them row-major (entry i of side j at
// b[i*c+j]), and x, as long as b, receives the solutions in the same
// layout. Each sweep runs row by row across every right-hand side, so
// their chains of dependent divisions overlap. Bandwidth 3 (the cubic
// B-spline system) runs its rows past the first three of each sweep
// written out: on amd64 with AVX2, a vector body takes the whole groups
// of four right-hand sides, one per lane (kernels_amd64.go), and the Go
// body the rest. Each right-hand side's operations, and their order,
// are those of a solve of it alone. x must not alias b.
func (bc *BandCholesky) SolveInto(b, x []float64) error {
	n, k := bc.n, bc.k
	cols := 0
	if n > 0 {
		cols = len(b) / n
	}
	if len(b) != n*cols {
		return fmt.Errorf("linalg: band solve rhs %d, want a multiple of %d: %w", len(b), n, ErrShape)
	}
	if len(x) != len(b) {
		return fmt.Errorf("linalg: band solve dst %d want %d: %w", len(x), len(b), ErrShape)
	}
	w := k + 1
	l := bc.l
	// The rows each sweep runs by the generic loop: all of them, or the
	// first three when bandwidth 3 writes the others out.
	head := n
	if k == 3 {
		head = min(n, 3)
	}
	// Forward substitution L y = b, with y stored in x:
	// y_i = (b_i − Σ_{m=i−k..i−1} L[i][m]·y_m) / L[i][i].
	for i := 0; i < head; i++ {
		xi, bi := x[i*cols:(i+1)*cols], b[i*cols:(i+1)*cols]
		bi = bi[:len(xi)]
		d := l[i*w+k]
		lo := max(0, i-k)
		for c := range xi {
			s := bi[c]
			for m := lo; m < i; m++ {
				s -= l[i*w+m-i+k] * x[m*cols+c]
			}
			xi[c] = s / d
		}
	}
	if k == 3 {
		bc.forward3(b, x, cols, forward3Vec(l, b, x, cols))
	}
	// Back substitution Lᵀ x = y, in place:
	// x_i = (y_i − Σ_{m=i+1..i+k} L[m][i]·x_m) / L[i][i].
	for i := n - 1; i >= n-head; i-- {
		xi := x[i*cols : (i+1)*cols]
		d := l[i*w+k]
		hi := min(i+k, n-1)
		for c := range xi {
			s := xi[c]
			for m := i + 1; m <= hi; m++ {
				s -= l[m*w+i-m+k] * x[m*cols+c]
			}
			xi[c] = s / d
		}
	}
	if k == 3 {
		bc.back3(x, cols, back3Vec(l, x, cols))
	}
	return nil
}

// forward3 runs the written-out forward rows 3 through n−1 of a
// bandwidth-3 solve of cols right-hand sides on those from `from`
// onward: the Go body forward3AVX2 holds its lanes to.
func (bc *BandCholesky) forward3(b, x []float64, cols, from int) {
	if from == cols {
		return
	}
	l := bc.l
	for i := 3; i < bc.n; i++ {
		l0, l1, l2, d := l[4*i], l[4*i+1], l[4*i+2], l[4*i+3]
		xi, bi := x[i*cols+from:(i+1)*cols], b[i*cols+from:(i+1)*cols]
		x0, x1, x2 := x[(i-3)*cols+from:(i-2)*cols], x[(i-2)*cols+from:(i-1)*cols], x[(i-1)*cols+from:i*cols]
		bi, x0, x1, x2 = bi[:len(xi)], x0[:len(xi)], x1[:len(xi)], x2[:len(xi)]
		for c := range xi {
			s := bi[c]
			s -= l0 * x0[c]
			s -= l1 * x1[c]
			s -= l2 * x2[c]
			xi[c] = s / d
		}
	}
}

// back3 runs the written-out back rows n−4 down to 0 of a bandwidth-3
// solve of cols right-hand sides on those from `from` onward: the Go
// body back3AVX2 holds its lanes to.
func (bc *BandCholesky) back3(x []float64, cols, from int) {
	if from == cols {
		return
	}
	l := bc.l
	for i := bc.n - 4; i >= 0; i-- {
		l1, l2, l3, d := l[4*(i+1)+2], l[4*(i+2)+1], l[4*(i+3)], l[4*i+3]
		xi := x[i*cols+from : (i+1)*cols]
		x1, x2, x3 := x[(i+1)*cols+from:(i+2)*cols], x[(i+2)*cols+from:(i+3)*cols], x[(i+3)*cols+from:(i+4)*cols]
		x1, x2, x3 = x1[:len(xi)], x2[:len(xi)], x3[:len(xi)]
		for c := range xi {
			s := xi[c]
			s -= l1 * x1[c]
			s -= l2 * x2[c]
			s -= l3 * x3[c]
			xi[c] = s / d
		}
	}
}

// HatDiag writes h[j] = φⱼᵀ A⁻¹ φⱼ for every row φⱼ of phi (m×n) into h
// (length m): the hat-matrix diagonal of the smoother whose normal
// matrix A this factors. One backward sweep over the factor
// (Hutchinson & de Hoog, 1985) gives the band of S = A⁻¹,
//
//	S_ij = (δ_ij/L_ii − Σ_{m=i+1..i+k} L_mi S_mj) / L_ii,  i = n−1 … 0,
//
// for j = i … i+k, in O(n·k²). Each h[j] is then the quadratic form
// Σ_a φ_a Σ_b S_ab φ_b over the row's window, in column order. phi's
// windows must be no wider than k+1, so that every pair of a window
// lies inside the band: a B-spline design against its factor of
// bandwidth order−1, or full rows against a factor of bandwidth n−1.
// The values are not bitwise those of SolveInto and Dot per row;
// DESIGN.md §6 states what stays bitwise.
func (bc *BandCholesky) HatDiag(phi *SpanMatrix, h []float64) error {
	m, c := phi.Dims()
	if c != bc.n || phi.w > bc.k+1 {
		return fmt.Errorf("linalg: hat diagonal of %dx%d design with %d-wide windows, factor is %d with bandwidth %d: %w", m, c, phi.w, bc.n, bc.k, ErrShape)
	}
	if len(h) != m {
		return fmt.Errorf("linalg: hat diagonal dst %d want %d: %w", len(h), m, ErrShape)
	}
	k := bc.k
	sw := 2*k + 1
	s := bc.inverseBand()
	for j := range h {
		start, vals := phi.Row(j)
		var hj float64
		for a, va := range vals {
			// si[b] = S[start+a][start+b].
			si := s[(start+a)*sw+k-a:]
			si = si[:len(vals)]
			var t float64
			for b, vb := range vals {
				t += si[b] * vb
			}
			hj += va * t
		}
		h[j] = hj
	}
	return nil
}

// inverseBand returns the band of A⁻¹ in rows of 2k+1: entry
// i*(2k+1) + (j−i+k) holds S_ij for |i−j| ≤ k, and the slots of
// columns outside [0, n) hold 0.
func (bc *BandCholesky) inverseBand() []float64 {
	n, k, l := bc.n, bc.k, bc.l
	w, sw := k+1, 2*k+1
	buf := make([]float64, n*sw+k)
	s, col := buf[:n*sw], buf[n*sw:]
	for i := n - 1; i >= 0; i-- {
		hi := min(i+k, n-1)
		// col[m−i−1] = L[m][i], the column below the pivot.
		for m := i + 1; m <= hi; m++ {
			col[m-i-1] = l[m*w+i-m+k]
		}
		d := l[i*w+k]
		si := s[i*sw : (i+1)*sw]
		for j := i + 1; j <= hi; j++ {
			var v float64
			for m := i + 1; m <= hi; m++ {
				v -= col[m-i-1] * s[m*sw+j-m+k]
			}
			v /= d
			si[j-i+k] = v
			s[j*sw+i-j+k] = v
		}
		v := 1 / d
		for m := i + 1; m <= hi; m++ {
			v -= col[m-i-1] * si[m-i+k]
		}
		si[k] = v / d
	}
	return s
}
