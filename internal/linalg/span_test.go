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

// TestAtVecMatchesExplicit pins the span kernels sᵀx (AtVecInto, for
// one to five vectors at once) and sx (MulVecInto) to the explicit dense
// products, bit for bit, for every window width, with windows at random
// starts and at starts that advance down the rows as a B-spline
// design's do. The vectors mix zeros, subnormals and magnitudes near
// MaxFloat64 with normal draws, and the buffers start dirty.
func TestAtVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 13
	for _, w := range spanWidths {
		for _, sorted := range []bool{false, true} {
			s, a := randomSpan(rng, m, spanCols, w)
			if sorted {
				s, a = advancingSpan(s)
			}
			for _, vecs := range []int{1, 2, 3, 5} {
				xs := make([][]float64, vecs)
				for c := range xs {
					xs[c] = make([]float64, m)
					for i := range xs[c] {
						xs[c][i] = spanValue(rng)
					}
				}
				got := make([]float64, spanCols*vecs)
				for i := range got {
					got[i] = float64(i + 1)
				}
				if err := s.AtVecInto(xs, got); err != nil {
					t.Fatal(err)
				}
				for c, x := range xs {
					want, err := a.T().MulVec(x)
					if err != nil {
						t.Fatal(err)
					}
					col := make([]float64, spanCols)
					for i := range col {
						col[i] = got[i*vecs+c]
					}
					assertBitwise(t, fmt.Sprintf("width %d (advancing %v) AtVecInto vector %d of %d", w, sorted, c, vecs), col, want)
				}
			}
		}
		s, a := randomSpan(rng, m, spanCols, w)
		coef := make([]float64, spanCols)
		for i := range coef {
			coef[i] = spanValue(rng)
		}
		got := make([]float64, m)
		for i := range got {
			got[i] = math.NaN()
		}
		if err := s.MulVecInto(coef, got); err != nil {
			t.Fatal(err)
		}
		want, err := a.MulVec(coef)
		if err != nil {
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
		{"AtVecInto short vector", s.AtVecInto([][]float64{make([]float64, 3), make([]float64, 4)}, make([]float64, 10))},
		{"AtVecInto short out", s.AtVecInto([][]float64{make([]float64, 3)}, make([]float64, 4))},
		{"AtVecInto out for one vector too many", s.AtVecInto([][]float64{make([]float64, 3)}, make([]float64, 10))},
		{"MulVecInto short vector", s.MulVecInto(make([]float64, 4), make([]float64, 3))},
		{"MulVecInto long out", s.MulVecInto(make([]float64, 5), make([]float64, 4))},
	} {
		if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", c.name, c.err)
		}
	}
}

// randomStarts returns s with its windows moved to random starts, and
// its dense form.
func randomStarts(rng *rand.Rand, s *SpanMatrix) (*SpanMatrix, *Dense) {
	m, n := s.Dims()
	start := make([]int, m)
	dense := NewDense(m, n)
	for j := range start {
		start[j] = rng.Intn(n - s.w + 1)
		for r, v := range s.vals[j*s.w : (j+1)*s.w] {
			dense.Set(j, start[j]+r, v)
		}
	}
	return NewSpanMatrix(n, s.w, start, s.vals), dense
}

// advancingSpan returns s with its windows moved to starts that never
// decrease down the rows, the shape of a B-spline design on a sorted
// grid, and its dense form.
func advancingSpan(s *SpanMatrix) (*SpanMatrix, *Dense) {
	m, n := s.Dims()
	start := make([]int, m)
	dense := NewDense(m, n)
	for j := range start {
		if m > 1 {
			start[j] = j * (n - s.w) / (m - 1)
		}
		for r, v := range s.vals[j*s.w : (j+1)*s.w] {
			dense.Set(j, start[j]+r, v)
		}
	}
	return NewSpanMatrix(n, s.w, start, s.vals), dense
}

// residualColumns are the block widths the residual sums and the band
// solve are checked on: every count from one to nine, so each count of
// tail columns after the groups of four, and 31–33 around a block of
// the smoother's width.
var residualColumns = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33}

// TestResidualSumsMatchesExplicit pins ResidualSums to the explicit
// sums over the dense product, bit for bit: for each column, the
// residuals r = y − a·x_c of the dense MulVec, then Σ r² and Σ (r/den)²
// from +0 in row order. Every window width, the block widths of
// residualColumns, random and advancing starts, and weights from 1e-10
// up. The design and two columns in three mix zeros of both signs,
// subnormals and magnitudes up to 1e75 with normal draws, small enough
// that most of their sums stay finite, so a sum that read another
// column's terms would show; every third column draws spanValue's
// whole range, whose magnitudes near MaxFloat64 overflow the products
// to ±Inf and the sums to ±Inf and NaN.
func TestResidualSumsMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tame := func() float64 {
		if v := spanValue(rng); math.Abs(v) <= 1e300 {
			return v
		}
		return math.Copysign(1e75*(1-rng.Float64()/4), rng.NormFloat64())
	}
	const m = 13
	for _, w := range spanWidths {
		for _, sorted := range []bool{false, true} {
			s, _ := randomSpan(rng, m, spanCols, w)
			for i := range s.vals {
				s.vals[i] = tame()
			}
			s, a := advancingSpan(s)
			if !sorted {
				s, a = randomStarts(rng, s)
			}
			var tameCols, tameFinite, wildCols, wildFinite int
			for _, vecs := range residualColumns {
				value := func(c int) float64 {
					if c%3 == 2 {
						return spanValue(rng)
					}
					return tame()
				}
				x, ys := make([]float64, spanCols*vecs), make([]float64, m*vecs)
				for i := range x {
					x[i] = value(i % vecs)
				}
				for i := range ys {
					ys[i] = value(i % vecs)
				}
				den := make([]float64, m)
				for j := range den {
					den[j] = math.Max(1e-10, rng.Float64())
				}
				rss, wss := make([]float64, vecs), make([]float64, vecs)
				for c := range rss {
					rss[c], wss[c] = math.NaN(), math.NaN()
				}
				if err := s.ResidualSums(x, ys, den, rss, wss); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < vecs; c++ {
					xc := make([]float64, spanCols)
					for i := range xc {
						xc[i] = x[i*vecs+c]
					}
					fit, err := a.MulVec(xc)
					if err != nil {
						t.Fatal(err)
					}
					var r2, w2 float64
					for j, f := range fit {
						r := ys[j*vecs+c] - f
						r2 += r * r
						q := r / den[j]
						w2 += q * q
					}
					what := fmt.Sprintf("width %d (advancing %v), column %d of %d", w, sorted, c, vecs)
					assertBitwise(t, what+" rss", rss[c:c+1], []float64{r2})
					assertBitwise(t, what+" wss", wss[c:c+1], []float64{w2})
					finite := !math.IsInf(r2, 0) && !math.IsNaN(r2) && !math.IsInf(w2, 0) && !math.IsNaN(w2)
					if c%3 == 2 {
						wildCols++
						if finite {
							wildFinite++
						}
					} else {
						tameCols++
						if finite {
							tameFinite++
						}
					}
				}
			}
			if w > 0 && 2*tameFinite < tameCols {
				t.Errorf("width %d (advancing %v): only %d of %d tame columns had finite sums", w, sorted, tameFinite, tameCols)
			}
			if w > 0 && wildFinite == wildCols {
				t.Errorf("width %d (advancing %v): all %d columns of spanValue's range had finite sums", w, sorted, wildCols)
			}
		}
	}
	s := NewSpanMatrix(5, 2, make([]int, 3), make([]float64, 6))
	for _, c := range []struct {
		name string
		err  error
	}{
		{"short coefficients", s.ResidualSums(make([]float64, 4), make([]float64, 3), make([]float64, 3), make([]float64, 1), make([]float64, 1))},
		{"short values", s.ResidualSums(make([]float64, 5), make([]float64, 2), make([]float64, 3), make([]float64, 1), make([]float64, 1))},
		{"values for one column too many", s.ResidualSums(make([]float64, 5), make([]float64, 6), make([]float64, 3), make([]float64, 1), make([]float64, 1))},
		{"short weights", s.ResidualSums(make([]float64, 5), make([]float64, 3), make([]float64, 2), make([]float64, 1), make([]float64, 1))},
		{"short sums", s.ResidualSums(make([]float64, 5), make([]float64, 3), make([]float64, 3), make([]float64, 1), make([]float64, 0))},
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
