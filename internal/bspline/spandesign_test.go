package bspline

import (
	"math"
	"math/rand"
	"testing"
)

// TestEvalNonzeroMatchesEval checks that the compact evaluation is the
// exact scatter of Eval for interior points, knot values, the domain
// endpoints and clamped out-of-domain points, across derivative orders.
func TestEvalNonzeroMatchesEval(t *testing.T) {
	for _, order := range []int{1, 2, 3, 4, 6} {
		for _, dim := range []int{order, order + 1, order + 5, order + 12} {
			b, err := New(dim, order, -1, 2)
			if err != nil {
				t.Fatal(err)
			}
			pts := []float64{-1, 2, -1.5, 2.5, 0, 0.123, 1.999}
			pts = append(pts, b.Knots()...)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				pts = append(pts, -1+3*rng.Float64())
			}
			full := make([]float64, dim)
			compact := make([]float64, order)
			for deriv := 0; deriv <= order; deriv++ {
				for _, x := range pts {
					b.Eval(x, deriv, full)
					start := b.EvalNonzero(x, deriv, compact)
					if start < 0 || start+order > dim {
						t.Fatalf("dim=%d order=%d deriv=%d t=%g: start %d out of range", dim, order, deriv, x, start)
					}
					for l := 0; l < dim; l++ {
						want := full[l]
						var got float64
						if l >= start && l < start+order {
							got = compact[l-start]
						}
						if math.Float64bits(got) != math.Float64bits(want) && !(got == 0 && want == 0) {
							t.Fatalf("dim=%d order=%d deriv=%d t=%g basis %d: compact %g, full %g",
								dim, order, deriv, x, l, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSpanDesignDotMatchesFullDot checks that the compact product Φα
// equals the full-length dot of every row bit for bit on realistic
// coefficient vectors: the equivalence CurveFit.EvalGrid and the
// smoother's residual scan rely on. A Fourier design keeps full rows.
func TestSpanDesignDotMatchesFullDot(t *testing.T) {
	const dim, order = 17, 4
	b, err := New(dim, order, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	coef := make([]float64, dim)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	ts := make([]float64, 301)
	for i := range ts {
		ts[i] = float64(i) / float64(len(ts)-1)
	}
	fb, err := NewFourier(dim, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]float64, dim)
	for _, basis := range []Basis{b, fb} {
		for deriv := 0; deriv <= 2; deriv++ {
			sd := NewSpanDesign(basis, ts, deriv)
			compact := make([]float64, len(ts))
			if err := sd.MulVecInto(coef, compact); err != nil {
				t.Fatal(err)
			}
			for j, x := range ts {
				basis.Eval(x, deriv, full)
				var want float64
				for l, c := range coef {
					want += c * full[l]
				}
				got := compact[j]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%T deriv=%d t=%g: compact dot %g (%x), full dot %g (%x)",
						basis, deriv, x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// BenchmarkSpanDesignDot and BenchmarkFullEvalDot back the EvalGrid fix
// with numbers: the compact path avoids the per-point O(dim) zeroing and
// dot of the point-by-point evaluation.
func BenchmarkSpanDesignDot(bm *testing.B) {
	const dim = 25
	b, _ := New(dim, 4, 0, 1)
	ts := make([]float64, 100)
	for i := range ts {
		ts[i] = float64(i) / 99
	}
	coef := make([]float64, dim)
	for i := range coef {
		coef[i] = float64(i%5) - 2
	}
	sd := NewSpanDesign(b, ts, 1)
	out := make([]float64, len(ts))
	bm.ReportAllocs()
	bm.ResetTimer()
	for n := 0; n < bm.N; n++ {
		if err := sd.MulVecInto(coef, out); err != nil {
			bm.Fatal(err)
		}
	}
}

func BenchmarkFullEvalDot(bm *testing.B) {
	const dim = 25
	b, _ := New(dim, 4, 0, 1)
	ts := make([]float64, 100)
	for i := range ts {
		ts[i] = float64(i) / 99
	}
	coef := make([]float64, dim)
	for i := range coef {
		coef[i] = float64(i%5) - 2
	}
	buf := make([]float64, dim)
	bm.ReportAllocs()
	bm.ResetTimer()
	var sink float64
	for n := 0; n < bm.N; n++ {
		for _, x := range ts {
			b.Eval(x, 1, buf)
			var s float64
			for l, c := range coef {
				s += c * buf[l]
			}
			sink += s
		}
	}
	_ = sink
}
