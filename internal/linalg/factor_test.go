package linalg

import (
	"errors"
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

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [6,5] → x = [1,1].
	a := mustDense(2, 2, 4, 2, 2, 3)
	ch, err := NewCholesky(a)
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

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 2, 1) // eigenvalues 3 and −1
	if _, err := NewCholesky(a); !errors.Is(err, ErrSingular) {
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
		ch, err := NewCholesky(a)
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
	ch, err := NewCholesky(randomSPD(rng, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestLUSolveKnown(t *testing.T) {
	// Requires pivoting: first pivot is 0.
	a := mustDense(2, 2, 0, 1, 1, 0)
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v want [3 2]", x)
	}
}

func TestLUDet(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 3, 4) // det = −2
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lu.Det(), -2, 1e-12) {
		t.Fatalf("det = %g want -2", lu.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 2, 4)
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		x, err := lu.Solve(b)
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

func TestSolveSPDFallsBackOnSemiDefinite(t *testing.T) {
	// Rank-1 matrix plus rhs in its range: Cholesky fails, ridge-LU
	// fallback must still produce a small-residual solution.
	a := mustDense(2, 2, 1, 1, 1, 1)
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ax[0], 2, 1e-4) || !almostEqual(ax[1], 2, 1e-4) {
		t.Fatalf("residual too large: Ax = %v", ax)
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
	ch, err := NewCholesky(a)
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
