package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive-definite matrix AᵀA + I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	spd, _ := a.T().Mul(a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+1)
	}
	return spd
}

// randomBandedSPD builds an SPD matrix of bandwidth k by forming
// BᵀB + n·I, where row i of B is nonzero in columns i through i+k only:
// (BᵀB)_ij sums over the rows holding both i and j, so it is +0 for
// |i−j| > k and, for the draws here, nonzero within the band.
func randomBandedSPD(rng *rand.Rand, n, k int) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j <= min(i+k, n-1); j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	spd, _ := b.T().Mul(b)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

// bandOf copies the lower band of a, of bandwidth k, into the storage
// NewBandCholesky factors.
func bandOf(a *Dense, k int) []float64 {
	n, _ := a.Dims()
	band := make([]float64, n*(k+1))
	for i := 0; i < n; i++ {
		for j := max(0, i-k); j <= i; j++ {
			band[i*(k+1)+j-i+k] = a.At(i, j)
		}
	}
	return band
}

// factorBand factors a at bandwidth k; k = n−1 is the dense
// factorization.
func factorBand(a *Dense, k int) (*BandCholesky, error) {
	n, _ := a.Dims()
	return NewBandCholesky(n, k, bandOf(a, k))
}

// factorDense factors a at bandwidth n−1, the whole lower triangle.
func factorDense(a *Dense) (*BandCholesky, error) {
	n, _ := a.Dims()
	return factorBand(a, max(0, n-1))
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [6,5] → x = [1,1].
	a := mustDense(2, 2, 4, 2, 2, 3)
	ch, err := factorDense(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Solve([]float64{6, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Fatalf("x = %v want [1 1]", x)
	}
}

// TestCholeskyRejectsNonSquare: storage that is not n rows of k+1
// values, as the band of a 2×3 matrix would be, fails with ErrShape.
func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewBandCholesky(2, 1, make([]float64, 6)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 2, 1) // eigenvalues 3 and −1
	if _, err := factorDense(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := factorDense(a)
		if err != nil {
			return false
		}
		x, err := ch.Solve(b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveRHSLength(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ch, err := factorDense(randomSPD(rng, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

// TestCholeskySolveIntoMatchesSolve checks that the scratch-buffer form
// is bitwise identical to the allocating one and validates lengths.
func TestCholeskySolveIntoMatchesSolve(t *testing.T) {
	a := NewDense(3, 3)
	vals := [][]float64{{4, 2, 0.5}, {2, 5, 1}, {0.5, 1, 3}}
	for i := range vals {
		copy(a.Row(i), vals[i])
	}
	ch, err := factorDense(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, -2, 0.25}
	want, err := ch.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if err := ch.SolveInto(rhs, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d]: SolveInto %g, Solve %g", i, got[i], want[i])
		}
	}
	if err := ch.SolveInto(rhs, make([]float64, 2)); err == nil {
		t.Fatal("SolveInto accepted short dst")
	}
	if err := ch.SolveInto(make([]float64, 2), got); err == nil {
		t.Fatal("SolveInto accepted short rhs")
	}
}

func TestBandwidthDetection(t *testing.T) {
	a := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		a.Set(i, i, 2)
		if i+1 < 5 {
			a.Set(i, i+1, 1)
			a.Set(i+1, i, 1)
		}
	}
	if got := Bandwidth(a); got != 1 {
		t.Fatalf("bandwidth = %d want 1", got)
	}
	if got := Bandwidth(Identity(4)); got != 0 {
		t.Fatalf("identity bandwidth = %d want 0", got)
	}
}

// TestBandCholeskyMatchesDense: the factor at the matrix's own
// bandwidth solves like the factor at bandwidth n−1, the dense
// factorization.
func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 8, 20} {
		for _, k := range []int{0, 1, 3} {
			if k >= n {
				continue
			}
			a := randomBandedSPD(rng, n, k)
			kb := Bandwidth(a)
			bc, err := factorBand(a, kb)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, kb, err)
			}
			dense, err := factorDense(a)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xb, err := bc.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			xd, err := dense.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xb {
				if !almostEqual(xb[i], xd[i], 1e-9*(1+math.Abs(xd[i]))) {
					t.Fatalf("n=%d k=%d: banded %g vs dense %g at %d", n, kb, xb[i], xd[i], i)
				}
			}
		}
	}
}

func TestBandCholeskyResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		k := rng.Intn(4)
		if k >= n {
			k = n - 1
		}
		a := randomBandedSPD(rng, n, k)
		bc, err := factorBand(a, Bandwidth(a))
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := bc.Solve(b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandCholeskyErrors(t *testing.T) {
	if _, err := NewBandCholesky(3, 1, make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatal("a band of the wrong length must fail")
	}
	if _, err := NewBandCholesky(3, -1, nil); !errors.Is(err, ErrShape) {
		t.Fatal("negative bandwidth must fail")
	}
	indef := mustDense(2, 2, 1, 2, 2, 1)
	if _, err := factorBand(indef, 1); !errors.Is(err, ErrSingular) {
		t.Fatal("indefinite must fail")
	}
	bc, err := factorBand(Identity(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("bad rhs length must fail")
	}
}

// TestBandCholeskyOversizedBandwidthClamped: a bandwidth past n−1 reads
// the same lower triangle and runs the same loops as n−1, so its
// solutions are bitwise the dense factor's.
func TestBandCholeskyOversizedBandwidthClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomBandedSPD(rng, 6, 2)
	bc, err := factorBand(a, 99)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := factorDense(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x, err := bc.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := dense.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEqual(ax[i], b[i], 1e-8) || math.Float64bits(x[i]) != math.Float64bits(xd[i]) {
			t.Fatal("oversized bandwidth solve wrong")
		}
	}
}

func BenchmarkCholeskyDense21(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomBandedSPD(rng, 21, 3)
	rhs := make([]float64, 21)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := factorDense(a)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 85; j++ {
			if _, err := ch.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCholeskyBanded21(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomBandedSPD(rng, 21, 3)
	rhs := make([]float64, 21)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := factorBand(a, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 85; j++ {
			if _, err := bc.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBandSolveIntoColumns holds SolveInto on an n×c matrix of
// right-hand sides to c solves by the single-column substitution
// loops, bit for bit, across bandwidths (0 through 4, the written-out
// 3 among them, and the dense n−1), sizes and the column counts of
// residualColumns. Two columns in three draw normal values; every third
// draws spanValue's zeros of both signs, subnormals and magnitudes near
// MaxFloat64, whose products and differences overflow to ±Inf and NaN.
func TestBandSolveIntoColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nonFinite := 0
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 21} {
		for _, k := range []int{0, 1, 2, 3, 4, n - 1} {
			if k < 0 || k > n-1 {
				continue
			}
			bc, err := factorBand(randomBandedSPD(rng, n, k), k)
			if err != nil {
				t.Fatal(err)
			}
			for _, cols := range residualColumns {
				rhs := make([]float64, n*cols)
				for i := range rhs {
					if i%cols%3 == 2 {
						rhs[i] = spanValue(rng)
					} else {
						rhs[i] = rng.NormFloat64()
					}
				}
				got := make([]float64, n*cols)
				for i := range got {
					got[i] = math.NaN()
				}
				if err := bc.SolveInto(rhs, got); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < cols; c++ {
					b, want := make([]float64, n), make([]float64, n)
					for i := range b {
						b[i] = rhs[i*cols+c]
					}
					solveOneColumn(bc, b, want)
					col := make([]float64, n)
					for i := range col {
						col[i] = got[i*cols+c]
					}
					assertBitwise(t, fmt.Sprintf("n=%d k=%d, column %d of %d", n, k, c, cols), col, want)
					for _, v := range want {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							nonFinite++
							break
						}
					}
				}
			}
		}
	}
	if nonFinite == 0 {
		t.Error("no solution overflowed: the non-finite lanes went unchecked")
	}
	t.Logf("%d solutions held a value that is not finite", nonFinite)
	bc, err := factorBand(randomBandedSPD(rng, 4, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.SolveInto(make([]float64, 6), make([]float64, 6)); !errors.Is(err, ErrShape) {
		t.Errorf("rhs of 1.5 columns: err = %v, want ErrShape", err)
	}
	if err := bc.SolveInto(make([]float64, 8), make([]float64, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("dst of one column for two: err = %v, want ErrShape", err)
	}
}

// solveOneColumn is the band solve of one right-hand side by plain
// forward and back substitution over the factor's band storage.
func solveOneColumn(bc *BandCholesky, b, x []float64) {
	n, k := bc.n, bc.k
	w := k + 1
	idx := func(i, j int) int { return i*w + (j - i + k) }
	for i := 0; i < n; i++ {
		s := b[i]
		for m := max(0, i-k); m < i; m++ {
			s -= bc.l[idx(i, m)] * x[m]
		}
		x[i] = s / bc.l[idx(i, i)]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for m := i + 1; m <= min(i+k, n-1); m++ {
			s -= bc.l[idx(m, i)] * x[m]
		}
		x[i] = s / bc.l[idx(i, i)]
	}
}

// TestBandSolveIntoMatchesSolve checks that the scratch-buffer form is
// bitwise identical to the allocating one and validates its dst length.
func TestBandSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomBandedSPD(rng, 17, 3)
	bc, err := factorBand(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, 17)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	want, err := bc.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 17)
	if err := bc.SolveInto(rhs, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d]: SolveInto %g, Solve %g", i, got[i], want[i])
		}
	}
	if err := bc.SolveInto(rhs, make([]float64, 5)); err == nil {
		t.Fatal("SolveInto accepted short dst")
	}
	if err := bc.SolveInto(make([]float64, 5), got); err == nil {
		t.Fatal("SolveInto accepted short rhs")
	}
}

// RefHatDiag is the plain reference HatDiag is pinned to: the same
// recursion for the band of S = A⁻¹, read from the factor L stored as
// NewBandCholesky leaves it (n rows of k+1), then φᵀSφ over every
// in-band pair of each full row of phi, in column order. It shares
// nothing with the kernel but the arithmetic; hat_test.go, an external
// test, uses it too.
func RefHatDiag(n, k int, l []float64, phi *Dense) []float64 {
	L := func(i, j int) float64 { return l[i*(k+1)+j-i+k] } // j in [i−k, i]
	S := make(map[[2]int]float64)
	at := func(i, j int) float64 { return S[[2]int{min(i, j), max(i, j)}] }
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j <= min(i+k, n-1); j++ {
			var v float64
			for m := i + 1; m <= min(i+k, n-1); m++ {
				v -= L(m, i) * at(m, j)
			}
			S[[2]int{i, j}] = v / L(i, i)
		}
		v := 1 / L(i, i)
		for m := i + 1; m <= min(i+k, n-1); m++ {
			v -= L(m, i) * at(m, i)
		}
		S[[2]int{i, i}] = v / L(i, i)
	}
	m, _ := phi.Dims()
	h := make([]float64, m)
	for j := range h {
		row := phi.Row(j)
		for a := range row {
			var t float64
			for b := max(0, a-k); b <= min(n-1, a+k); b++ {
				t += at(a, b) * row[b]
			}
			h[j] += row[a] * t
		}
	}
	return h
}

// assertHatBitwise checks HatDiag against RefHatDiag on the rows of
// phi twice: in their narrowest common window against the factor of a
// at bandwidth k, and in full against the factor at bandwidth n−1. It
// also holds the reference to one SolveInto and one Dot per row, the
// hat value computed in another order.
func assertHatBitwise(t *testing.T, a *Dense, k int, phi *Dense, what string) {
	t.Helper()
	n, _ := a.Dims()
	for _, form := range []struct {
		name string
		k    int
		span *SpanMatrix
	}{{"windows", k, narrowSpan(phi)}, {"full rows", max(0, n-1), fullSpan(phi)}} {
		bc, err := factorBand(a, form.k)
		if err != nil {
			t.Fatal(err)
		}
		want := RefHatDiag(n, form.k, bc.l, phi)
		got := make([]float64, len(want))
		if err := bc.HatDiag(form.span, got); err != nil {
			t.Fatal(err)
		}
		sol := make([]float64, n)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s, %s: h[%d] = %v (%#x), reference %v (%#x)", what, form.name, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
			if err := bc.SolveInto(phi.Row(j), sol); err != nil {
				t.Fatal(err)
			}
			if d := Dot(phi.Row(j), sol); !almostEqual(want[j], d, 1e-10*(1+math.Abs(d))) {
				t.Fatalf("%s, %s: reference h[%d] = %v, SolveInto+Dot %v", what, form.name, j, want[j], d)
			}
		}
	}
}

// TestHatDiagMatchesReferenceBitwise drives the hat kernel with random
// banded SPD factors and sparse rows: in each row a run of k+1
// consecutive columns holds normal draws and zeros of either sign, and
// +0 fills the rest; every row count 1–9, and bandwidths past n−1.
func TestHatDiagMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		k := rng.Intn(6) // k >= n reads the whole lower triangle
		a := randomBandedSPD(rng, n, min(k, n-1))
		m := 1 + trial%9
		phi := NewDense(m, n)
		for j := 0; j < m; j++ {
			f := rng.Intn(n)
			row := phi.Row(j)
			for i := f; i <= min(n-1, f+k); i++ {
				switch rng.Intn(4) {
				case 0:
					row[i] = math.Copysign(0, -1)
				case 1: // +0
				default:
					row[i] = rng.NormFloat64()
				}
			}
		}
		assertHatBitwise(t, a, k, phi, "random")
	}
}

func TestHatDiagShapeErrors(t *testing.T) {
	bc, err := factorBand(Identity(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.HatDiag(fullSpan(NewDense(2, 4)), make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("column mismatch err = %v, want ErrShape", err)
	}
	if err := bc.HatDiag(fullSpan(NewDense(2, 3)), make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("dst mismatch err = %v, want ErrShape", err)
	}
	narrow, err := factorBand(Identity(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.HatDiag(fullSpan(NewDense(2, 3)), make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("window wider than the band err = %v, want ErrShape", err)
	}
}
