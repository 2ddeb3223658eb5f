package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBandedSPD builds an SPD matrix with the given bandwidth by forming
// BᵀB + I where B is banded.
func randomBandedSPD(rng *rand.Rand, n, k int) *Dense {
	b := NewDense(n, n)
	// Fill B with bandwidth floor(k/2): BᵀB then has bandwidth ≤ 2·floor(k/2) ≤ k.
	half := k / 2
	for i := 0; i < n; i++ {
		for j := i - half; j <= i+half; j++ {
			if j >= 0 && j < n {
				b.Set(i, j, rng.NormFloat64())
			}
		}
	}
	spd, _ := b.T().Mul(b)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
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

func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 8, 20} {
		for _, k := range []int{0, 1, 3} {
			if k >= n {
				continue
			}
			a := randomBandedSPD(rng, n, k)
			kb := Bandwidth(a)
			bc, err := NewBandCholesky(a, kb)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, kb, err)
			}
			dense, err := NewCholesky(a)
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
		bc, err := NewBandCholesky(a, Bandwidth(a))
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
	if _, err := NewBandCholesky(NewDense(2, 3), 1); !errors.Is(err, ErrShape) {
		t.Fatal("non-square must fail")
	}
	if _, err := NewBandCholesky(Identity(3), -1); !errors.Is(err, ErrShape) {
		t.Fatal("negative bandwidth must fail")
	}
	indef := mustDense(2, 2, 1, 2, 2, 1)
	if _, err := NewBandCholesky(indef, 1); !errors.Is(err, ErrSingular) {
		t.Fatal("indefinite must fail")
	}
	bc, err := NewBandCholesky(Identity(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("bad rhs length must fail")
	}
}

func TestBandCholeskyOversizedBandwidthClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomBandedSPD(rng, 6, 2)
	bc, err := NewBandCholesky(a, 99)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x, err := bc.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEqual(ax[i], b[i], 1e-8) {
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
		ch, err := NewCholesky(a)
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
		bc, err := NewBandCholesky(a, 3)
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

// TestBandSolveIntoMatchesSolve checks that the scratch-buffer form is
// bitwise identical to the allocating one and validates its dst length.
func TestBandSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomBandedSPD(rng, 17, 3)
	bc, err := NewBandCholesky(a, 3)
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

// solveDotHat is the reference HatDiag is pinned to: one SolveInto and
// one Dot per design row.
func solveDotHat(t *testing.T, bc *BandCholesky, phi *Dense) []float64 {
	t.Helper()
	m, n := phi.Dims()
	h := make([]float64, m)
	sol := make([]float64, n)
	for j := range h {
		if err := bc.SolveInto(phi.Row(j), sol); err != nil {
			t.Fatal(err)
		}
		h[j] = Dot(phi.Row(j), sol)
	}
	return h
}

// assertHatBitwise checks HatDiag on the rows of phi, stored in full
// and in the narrowest common windows, against solveDotHat.
func assertHatBitwise(t *testing.T, bc *BandCholesky, phi *Dense, what string) {
	t.Helper()
	want := solveDotHat(t, bc, phi)
	for _, form := range []struct {
		name string
		span *SpanMatrix
	}{{"full rows", fullSpan(phi)}, {"windows", narrowSpan(phi)}} {
		got := make([]float64, len(want))
		if err := bc.HatDiag(form.span, got); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s, %s: h[%d] = %v (%#x), SolveInto+Dot %v (%#x)", what, form.name, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// TestHatDiagMatchesSolveDotBitwise drives the hat kernel with random
// banded SPD factors and sparse rows: a random support window with
// zeros of either sign inside and outside it, every row count 1–9 (full
// groups of four and every tail), and bandwidths clamped to n−1.
func TestHatDiagMatchesSolveDotBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		k := rng.Intn(6) // k >= n exercises the clamp to n−1
		bc, err := NewBandCholesky(randomBandedSPD(rng, n, min(k, n-1)), k)
		if err != nil {
			t.Fatal(err)
		}
		m := 1 + trial%9
		phi := NewDense(m, n)
		for j := 0; j < m; j++ {
			f := rng.Intn(n)
			e := min(n-1, f+rng.Intn(5))
			row := phi.Row(j)
			for i := range row {
				switch {
				case i >= f && i <= e && rng.Intn(4) > 0:
					row[i] = rng.NormFloat64()
				case rng.Intn(3) == 0:
					row[i] = math.Copysign(0, -1)
				}
			}
		}
		assertHatBitwise(t, bc, phi, "random")
	}
}

// TestHatDiagFallsBackWhereSkippingIsNotExact covers the rows and
// factors the support shortcut cannot take — an all-zero row, a
// non-finite row entry, a non-finite factor, and a factor whose back
// pass overflows below the support (the reference then gets 0·Inf =
// NaN, and so must the kernel) — next to rows with −0 entries, which it
// can.
func TestHatDiagFallsBackWhereSkippingIsNotExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bc, err := NewBandCholesky(randomBandedSPD(rng, 9, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	phi := NewDense(6, 9)
	copy(phi.Row(0), []float64{0, 0, 0.5, math.Copysign(0, -1), 0.25, 0, 0, 0, 0})
	copy(phi.Row(2), []float64{math.Copysign(0, -1), 0, 0, 0, 0, 0, 1, 0.5, 0})
	copy(phi.Row(3), []float64{0, 0, 0, 0, math.Inf(1), 0.5, 0, 0, 0})
	copy(phi.Row(4), []float64{0, 0, 0, 0, 0, math.NaN(), 1, 0, 0})
	copy(phi.Row(5), []float64{0, 0, 0, 0, 0, 0, 0, 0.75, 0.25})
	assertHatBitwise(t, bc, phi, "unclean rows")

	// Hand-built factor: tiny leading pivots with unit couplings make
	// the back pass grow by 1e200 per step below the support.
	const n, k = 6, 1
	tiny := &BandCholesky{n: n, k: k, l: make([]float64, n*(k+1))}
	for i := 0; i < n; i++ {
		tiny.l[i*(k+1)+k] = 1
		if i < 3 {
			tiny.l[i*(k+1)+k] = 1e-200
		}
		if i > 0 {
			tiny.l[i*(k+1)] = 1
		}
	}
	tail := NewDense(1, n)
	tail.Set(0, n-1, 1)
	assertHatBitwise(t, tiny, tail, "overflow below the support")
	if h := solveDotHat(t, tiny, tail); !math.IsNaN(h[0]) {
		t.Fatalf("fixture does not overflow: reference h = %v", h[0])
	}

	inf := &BandCholesky{n: tiny.n, k: tiny.k, l: append([]float64(nil), tiny.l...)}
	for i := range inf.l {
		inf.l[i] = 1
	}
	inf.l[0] = math.Inf(1)
	assertHatBitwise(t, inf, tail, "non-finite factor")
}

func TestHatDiagShapeErrors(t *testing.T) {
	bc, err := NewBandCholesky(Identity(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.HatDiag(fullSpan(NewDense(2, 4)), make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("column mismatch err = %v, want ErrShape", err)
	}
	if err := bc.HatDiag(fullSpan(NewDense(2, 3)), make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("dst mismatch err = %v, want ErrShape", err)
	}
}
