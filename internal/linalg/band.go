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

// NewBandCholesky factors the symmetric positive-definite matrix a,
// reading only its band of the given bandwidth. It returns ErrSingular
// when a pivot is not strictly positive (the same failure mode as the
// dense factorization).
func NewBandCholesky(a *Dense, k int) (*BandCholesky, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("linalg: band cholesky of %dx%d: %w", n, c, ErrShape)
	}
	if k < 0 || k >= n && n > 0 {
		if k < 0 {
			return nil, fmt.Errorf("linalg: negative bandwidth %d: %w", k, ErrShape)
		}
		k = n - 1
	}
	w := k + 1
	l := make([]float64, n*w)
	// band(i, j) accesses L[i][j] for j in [i−k, i].
	idx := func(i, j int) int { return i*w + (j - i + k) }
	for i := 0; i < n; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			sum := a.At(i, j)
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

// SolveInto solves A x = b in O(n·k) into the caller-provided x
// (length n), the allocation-free form the smoothing hot path uses with
// per-worker scratch buffers. x must not alias b.
func (bc *BandCholesky) SolveInto(b, x []float64) error {
	if len(b) != bc.n {
		return fmt.Errorf("linalg: band solve rhs %d want %d: %w", len(b), bc.n, ErrShape)
	}
	if len(x) != bc.n {
		return fmt.Errorf("linalg: band solve dst %d want %d: %w", len(x), bc.n, ErrShape)
	}
	n, k := bc.n, bc.k
	w := k + 1
	idx := func(i, j int) int { return i*w + (j - i + k) }
	// Forward substitution L y = b, with y stored in x.
	for i := 0; i < n; i++ {
		s := b[i]
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for m := lo; m < i; m++ {
			s -= bc.l[idx(i, m)] * x[m]
		}
		x[i] = s / bc.l[idx(i, i)]
	}
	// Back substitution Lᵀ x = y, in place.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		hi := i + k
		if hi > n-1 {
			hi = n - 1
		}
		for m := i + 1; m <= hi; m++ {
			s -= bc.l[idx(m, i)] * x[m]
		}
		x[i] = s / bc.l[idx(i, i)]
	}
	return nil
}

// HatDiag writes h[j] = φⱼᵀ A⁻¹ φⱼ for every row φⱼ of phi (m×n) into h
// (length m): the hat-matrix diagonal of the smoother whose normal
// matrix A this factors. Every h[j] is bitwise what SolveInto on the
// dense row followed by Dot of the row with the solution gives, at a
// fraction of the cost:
//
//   - the work follows the row's support [f, e], its first and last
//     nonzero entry, read from the row's window: the forward pass starts
//     at f, the back pass stops there, and the dot runs over [f, e].
//     Every term this skips is a ±0 product of finite numbers (a +0 one
//     for a B-spline design, whose values are never −0). Skipping it can
//     change only the sign of a zero intermediate, and no such sign
//     reaches h: the dot's running sum starts at +0, so it is never −0;
//   - four rows share one pass, so their division chains overlap; a
//     tail of fewer than four rows repeats its last row.
//
// The skipped terms are finite when the factor is and the solve cannot
// overflow below f, which hatRoom bounds from the factor's column sums.
// A group that fails the bound, or holds an all-zero row, runs the full
// passes and the full dot, which are SolveInto and Dot term for term.
func (bc *BandCholesky) HatDiag(phi *SpanMatrix, h []float64) error {
	m, c := phi.Dims()
	if c != bc.n {
		return fmt.Errorf("linalg: hat diagonal of %dx%d design, factor is %d: %w", m, c, bc.n, ErrShape)
	}
	if len(h) != m {
		return fmt.Errorf("linalg: hat diagonal dst %d want %d: %w", len(h), m, ErrShape)
	}
	n := bc.n
	buf := make([]float64, 9*n+1)
	room := buf[8*n:]
	bc.hatRoom(room)
	// b holds the group's rows in full: each window is written in
	// before the pass and zeroed after it.
	var b, x [4][]float64
	for r := range x {
		b[r] = buf[r*n : (r+1)*n]
		x[r] = buf[(4+r)*n : (5+r)*n]
	}
	for j := 0; j < m; j += 4 {
		var f, e [4]int
		lo, exact := n, true
		for r := range b {
			start, vals := phi.Row(min(j+r, m-1))
			copy(b[r][start:], vals)
			var ok bool
			f[r], e[r], ok = support(vals)
			f[r] += start
			e[r] += start
			exact = exact && ok
			lo = min(lo, f[r])
		}
		if exact && !(bc.hatPass(&b, &x, lo) <= room[lo]) {
			exact = false
		}
		if !exact {
			bc.hatPass(&b, &x, 0)
			for r := range f {
				f[r], e[r] = 0, n-1
			}
		}
		for r := 0; r < len(b) && j+r < m; r++ {
			var s float64
			for i := f[r]; i <= e[r]; i++ {
				s += b[r][i] * x[r][i]
			}
			h[j+r] = s
		}
		for r := range b {
			start, vals := phi.Row(min(j+r, m-1))
			clear(b[r][start : start+len(vals)])
		}
	}
	return nil
}

// support returns the first and last nonzero entry of row; ok is false
// when the row has none.
func support(row []float64) (f, e int, ok bool) {
	for f < len(row) && row[f] == 0 {
		f++
	}
	if f == len(row) {
		return 0, 0, false
	}
	for e = len(row) - 1; row[e] == 0; e-- {
	}
	return f, e, true
}

// hatPass solves A x_r = b_r for the four rows of one HatDiag group with
// the forward pass started and the back pass stopped at lo, and returns
// Σ |x_r[i]| over the solved entries i >= lo (NaN or +Inf when one of
// them is not finite). With lo = 0 each solve is SolveInto term for
// term. With lo > 0 and every row zero below lo, the entries [lo, n)
// match SolveInto's up to the signs of zeros: the skipped forward terms
// are ±0.
func (bc *BandCholesky) hatPass(b, x *[4][]float64, lo int) float64 {
	n, k, l := bc.n, bc.k, bc.l
	w := k + 1
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	// Forward substitution L y = b, with y stored in x.
	for i := lo; i < n; i++ {
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		li := l[i*w : i*w+w] // li[d] = L[i][i−k+d]
		for m := max(lo, i-k); m < i; m++ {
			v := li[m-i+k]
			s0 -= v * x0[m]
			s1 -= v * x1[m]
			s2 -= v * x2[m]
			s3 -= v * x3[m]
		}
		d := li[k]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
	// Back substitution Lᵀ x = y, in place.
	var sum float64
	for i := n - 1; i >= lo; i-- {
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for m := i + 1; m <= min(i+k, n-1); m++ {
			v := l[m*w+i-m+k]
			s0 -= v * x0[m]
			s1 -= v * x1[m]
			s2 -= v * x2[m]
			s3 -= v * x3[m]
		}
		d := l[i*w+k]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
		sum += math.Abs(x0[i]) + math.Abs(x1[i]) + math.Abs(x2[i]) + math.Abs(x3[i])
	}
	return sum
}

// hatRoom fills room[f] (f = 0..n) with a bound on Σ|x[i]|, i >= f,
// under which the back pass over the entries below f cannot overflow:
// each step down multiplies the largest magnitude by at most
// max(1, c_i/L[i][i]), c_i = Σ_m |L[m][i]| the off-diagonal column sum,
// and no product or partial sum exceeds max(1, max c_i) times it. The
// bound keeps a factor of four for rounding. A factor with a
// non-finite entry gets −1 everywhere: no shortcut is exact there.
func (bc *BandCholesky) hatRoom(room []float64) {
	n, k, l := bc.n, bc.k, bc.l
	w := k + 1
	grow, colMax := 1.0, 1.0
	for i := 0; i < n; i++ {
		room[i] = grow
		var c float64
		for m := i + 1; m <= min(i+k, n-1); m++ {
			c += math.Abs(l[m*w+i-m+k])
		}
		d := l[i*w+k]
		if !(c+d <= math.MaxFloat64) {
			for f := range room {
				room[f] = -1
			}
			return
		}
		grow *= max(1, c/d)
		colMax = max(colMax, c)
	}
	room[n] = grow
	for f := range room {
		room[f] = math.MaxFloat64 / 4 / (colMax * room[f])
	}
}
