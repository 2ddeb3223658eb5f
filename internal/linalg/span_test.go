package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// fullSpan stores the rows of a in full.
func fullSpan(a *Dense) *SpanMatrix {
	r, c := a.Dims()
	return NewSpanMatrix(c, c, make([]int, r), a.data)
}

// narrowSpan stores the rows of a in the narrowest common window that
// holds every entry other than +0, so its dense form is a, bit for bit.
func narrowSpan(a *Dense) *SpanMatrix {
	r, c := a.Dims()
	first, w := make([]int, r), 0
	for j := range first {
		f, e := c, -1
		for i, v := range a.Row(j) {
			if math.Float64bits(v) != 0 {
				f, e = min(f, i), i
			}
		}
		first[j] = f
		w = max(w, e-f+1)
	}
	vals := make([]float64, r*w)
	for j := range first {
		first[j] = min(first[j], c-w)
		copy(vals[j*w:(j+1)*w], a.Row(j)[first[j]:])
	}
	return NewSpanMatrix(c, w, first, vals)
}

// randomSpan returns an m×n span matrix with w-wide windows at random
// starts, holding normal draws with exact zeros of either sign, and its
// dense form.
func randomSpan(rng *rand.Rand, m, n, w int) (*SpanMatrix, *Dense) {
	start := make([]int, m)
	vals := make([]float64, m*w)
	dense := NewDense(m, n)
	for j := range start {
		start[j] = rng.Intn(n - w + 1)
		for r := 0; r < w; r++ {
			v := rng.NormFloat64()
			switch rng.Intn(6) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			vals[j*w+r] = v
			dense.Set(j, start[j]+r, v)
		}
	}
	return NewSpanMatrix(n, w, start, vals), dense
}

func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAtAMatchesExplicit pins the span Gram to the explicit product
// AᵀA of the dense form, bit for bit, for every window width.
func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for w := 0; w <= 6; w++ {
		s, a := randomSpan(rng, 9, 6, w)
		want, err := a.T().Mul(a)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "AtA", s.AtA().data, want.data)
	}
}

// TestAtVecMatchesExplicit pins the span products Aᵀx and the row dots
// to the explicit dense ones, bit for bit, for every window width.
func TestAtVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for w := 0; w <= 5; w++ {
		s, a := randomSpan(rng, 8, 5, w)
		x := make([]float64, 8)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		x[2], x[5] = 0, math.Copysign(0, -1)
		got, err := s.AtVec(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.T().MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "AtVec", got, want)
		coef := x[:5]
		for j := 0; j < 8; j++ {
			assertBitwise(t, "Dot", []float64{s.Dot(j, coef)}, []float64{Dot(a.Row(j), coef)})
		}
	}
	if _, err := NewSpanMatrix(5, 2, make([]int, 3), make([]float64, 6)).AtVec(make([]float64, 4)); err == nil {
		t.Fatal("AtVec accepted a vector of the wrong length")
	}
}

func TestNewSpanMatrixRejectsBadWindows(t *testing.T) {
	for _, c := range []struct {
		name  string
		n, w  int
		start []int
		vals  int
	}{
		{"window past the last column", 4, 2, []int{3}, 2},
		{"negative start", 4, 2, []int{-1}, 2},
		{"wider than the matrix", 2, 3, []int{0}, 3},
		{"short values", 4, 2, []int{0, 1}, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewSpanMatrix(c.n, c.w, c.start, make([]float64, c.vals))
		}()
	}
}
