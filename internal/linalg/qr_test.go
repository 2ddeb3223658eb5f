package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSolveSquareKnown(t *testing.T) {
	a := mustDense(2, 2, 2, 1, 1, 3)
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Solve directly: 2x+y=5, x+3y=10 → x=1, y=3.
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("x = %v want [1 3]", x)
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := mustDense(3, 2, 1, 1, 2, 2, 3, 3)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if qr.FullRank() {
		t.Fatal("rank-deficient matrix reported full rank")
	}
	if _, err := qr.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestQRLeastSquaresRegression(t *testing.T) {
	// Fit y = 2 + 3 t on noiseless data: exact recovery.
	ts := []float64{0, 1, 2, 3, 4}
	a := NewDense(len(ts), 2)
	b := make([]float64, len(ts))
	for i, tt := range ts {
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		b[i] = 2 + 3*tt
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("coef = %v want [2 3]", x)
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestQRNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(8)
		n := 1 + rng.Intn(3)
		if n > m {
			n = m
		}
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draw: nothing to check
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		res := make([]float64, m)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		atr, err := a.T().MulVec(res)
		if err != nil {
			return false
		}
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQRSolveRHSLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qr, err := NewQR(randomDense(rng, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qr.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestQRAgreesWithCholeskyOnSPDSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 10, 4)
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xQR, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations route.
	gram, err := a.T().Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	atb, err := a.T().MulVec(b)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := factorDense(gram)
	if err != nil {
		t.Fatal(err)
	}
	xNE, err := ch.Solve(atb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xQR {
		if !almostEqual(xQR[i], xNE[i], 1e-8) {
			t.Fatalf("QR and normal equations disagree at %d: %g vs %g", i, xQR[i], xNE[i])
		}
	}
}
