package linalg

import (
	"errors"
	"fmt"
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

// spanValue draws from the finite values the kernels are checked on:
// normal draws, exact zeros of either sign, subnormals and magnitudes
// near MaxFloat64, whose products overflow.
func spanValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Copysign(5e-324*float64(1+rng.Intn(1000)), rng.NormFloat64())
	case 3:
		return math.Copysign(math.MaxFloat64*(1-rng.Float64()/4), rng.NormFloat64())
	}
	return rng.NormFloat64()
}

// randomSpan returns an m×n span matrix with w-wide windows at random
// starts, holding spanValue draws, and its dense form.
func randomSpan(rng *rand.Rand, m, n, w int) (*SpanMatrix, *Dense) {
	start := make([]int, m)
	vals := make([]float64, m*w)
	dense := NewDense(m, n)
	for j := range start {
		start[j] = rng.Intn(n - w + 1)
		for r := 0; r < w; r++ {
			v := spanValue(rng)
			vals[j*w+r] = v
			dense.Set(j, start[j]+r, v)
		}
	}
	return NewSpanMatrix(n, w, start, vals), dense
}

func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// spanWidths are the window widths the kernels are checked on in
// spanCols columns: 0–8, the written-out 4-wide body among them, and
// full rows.
const spanCols = 11

var spanWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, spanCols}

// TestAtAMatchesExplicit pins the span Gram's band to the explicit
// product AᵀA of the dense form, bit for bit, for every window width,
// at the narrowest bandwidth that holds the windows and at full
// storage. Every entry outside that band must be +0 in AᵀA.
func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range spanWidths {
		s, a := randomSpan(rng, 13, spanCols, w)
		want, err := a.T().Mul(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{max(w-1, 0), spanCols - 1} {
			band := make([]float64, spanCols*(k+1))
			for i := range band {
				band[i] = math.NaN() // every slot must be written
			}
			if err := s.GramBandInto(k, band); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < spanCols; i++ {
				for j := 0; j <= i; j++ {
					got := 0.0
					if i-j <= k {
						got = band[i*(k+1)+j-i+k]
					}
					if math.Float64bits(got) != math.Float64bits(want.At(j, i)) {
						t.Fatalf("width %d, bandwidth %d: gram (%d, %d) = %v, AᵀA has %v", w, k, i, j, got, want.At(j, i))
					}
				}
				for d := 0; d < k-i; d++ {
					if math.Float64bits(band[i*(k+1)+d]) != 0 {
						t.Fatalf("width %d, bandwidth %d: slot %d of row %d, before column 0, = %v", w, k, d, i, band[i*(k+1)+d])
					}
				}
			}
		}
	}
	s, _ := randomSpan(rng, 3, 5, 3)
	for _, c := range []struct {
		k, n int
	}{{1, 10}, {2, 14}, {-1, 0}} {
		if err := s.GramBandInto(c.k, make([]float64, c.n)); !errors.Is(err, ErrShape) {
			t.Errorf("bandwidth %d into %d values: err = %v, want ErrShape", c.k, c.n, err)
		}
	}
}

// TestAtVecMatchesExplicit pins the span kernels sᵀx (AtVecInto) and sx
// (MulVecInto) to the explicit dense products, bit for bit, for every
// window width. The vectors mix zeros, subnormals and magnitudes near
// MaxFloat64 with normal draws, and the buffers start dirty.
func TestAtVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 13
	for _, w := range spanWidths {
		s, a := randomSpan(rng, m, spanCols, w)
		x, coef := make([]float64, m), make([]float64, spanCols)
		for i := range x {
			x[i] = spanValue(rng)
		}
		for i := range coef {
			coef[i] = spanValue(rng)
		}
		got := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		if err := s.AtVecInto(x, got); err != nil {
			t.Fatal(err)
		}
		want, err := a.T().MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, fmt.Sprintf("width %d AtVecInto", w), got, want)
		got = make([]float64, m)
		for i := range got {
			got[i] = math.NaN()
		}
		if err := s.MulVecInto(coef, got); err != nil {
			t.Fatal(err)
		}
		if want, err = a.MulVec(coef); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, fmt.Sprintf("width %d MulVecInto", w), got, want)

		// Products that are all −0 sum to +0, as from the dense +0 start.
		negZero := make([]float64, w)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
			coef[i] = 1
		}
		if err := NewSpanMatrix(spanCols, w, []int{0}, negZero).MulVecInto(coef, got[:1]); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, fmt.Sprintf("width %d MulVecInto of −0 terms", w), got[:1], []float64{0})
	}
	s := NewSpanMatrix(5, 2, make([]int, 3), make([]float64, 6))
	for _, c := range []struct {
		name string
		err  error
	}{
		{"AtVecInto short vector", s.AtVecInto(make([]float64, 4), make([]float64, 5))},
		{"AtVecInto short out", s.AtVecInto(make([]float64, 3), make([]float64, 4))},
		{"MulVecInto short vector", s.MulVecInto(make([]float64, 4), make([]float64, 3))},
		{"MulVecInto long out", s.MulVecInto(make([]float64, 5), make([]float64, 4))},
	} {
		if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", c.name, c.err)
		}
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
