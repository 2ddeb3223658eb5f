package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotKnown(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2Known(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %g want 5", got)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) should be 0")
	}
}

func TestSubAndDist(t *testing.T) {
	if Dist2([]float64{0, 0}, []float64{3, 4}) != 5 {
		t.Fatal("Dist2 wrong")
	}
	if SqDist2([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Fatal("SqDist2 wrong")
	}
}

// Property: Cauchy–Schwarz |x·y| ≤ ‖x‖‖y‖.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(x, y []float64) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		x, y = x[:n], y[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological draws
			}
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Dist2.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := []float64{float64(seed % 97), float64(seed % 13), float64(seed % 7)}
		y := []float64{float64(seed % 31), float64(seed % 11), float64(seed % 3)}
		z := []float64{float64(seed % 17), float64(seed % 23), float64(seed % 5)}
		return Dist2(x, z) <= Dist2(x, y)+Dist2(y, z)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
