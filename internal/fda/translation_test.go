package fda_test

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// TestTranslationKeepsSelection holds the selection kernel to the
// paper's maths rather than to its own earlier output. The q = 2
// penalty leaves constants free (R·1 = 0) and B-splines sum to one, so
// in exact arithmetic adding a constant c to a curve's values shifts
// every coefficient by c and leaves every residual, and with the hat
// diagonal (which never sees the values) every LOOCV and GCV criterion,
// unchanged. On the Fig. 3 curves (200, seed 1, both parameters, each
// spanning at most about 2) with c = 10, each candidate (L, λ) of the
// default ladder, 4 sizes × 5 λ fit on its own, must give LOOCV and GCV
// within a relative translationTol = 1e-9 of the untranslated curve's;
// in floating point they differ by the rounding of c + y, which on
// go1.24/amd64 reached 3.9e-13 (3.8e-11 at c = 1000). The selection
// over the whole ladder must then agree, except where the untranslated
// curve's best two candidates score within translationTol of each
// other; the test counts those, and there were none.
func TestTranslationKeepsSelection(t *testing.T) {
	const c, translationTol = 10.0, 1e-9
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Domain()
	ladder := fda.Options{Lo: lo, Hi: hi, Cache: fda.NewBasisCache()}
	ts := d.Samples[0].Times
	dims := []int{7, 10, 15, 21} // the default ladder at m = 85
	lambdas := []float64{0, 1e-8, 1e-6, 1e-4, 1e-2}
	if len(ts) != 85 {
		t.Fatalf("Fig. 3 curves have %d points, want 85", len(ts))
	}
	var worst float64
	var fits, close, moved int
	for i, s := range d.Samples {
		shifted := fda.Sample{Times: s.Times, Values: make([][]float64, len(s.Values))}
		for k, v := range s.Values {
			shifted.Values[k] = make([]float64, len(v))
			for j, x := range v {
				shifted.Values[k][j] = x + c
			}
		}
		// Every candidate alone, so its criteria are the fit's own.
		scores := make([][]float64, len(s.Values)) // per parameter, LOOCV of each candidate
		for _, dim := range dims {
			for _, lambda := range lambdas {
				opt := ladder
				opt.Dims, opt.Lambdas = []int{dim}, []float64{lambda}
				a, err := fda.FitSample(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := fda.FitSample(shifted, opt)
				if err != nil {
					t.Fatal(err)
				}
				for k := range a.Params {
					fa, fb := a.Params[k], b.Params[k]
					for _, pair := range [][2]float64{{fa.LOOCV, fb.LOOCV}, {fa.GCV, fb.GCV}} {
						rel := math.Abs(pair[0]-pair[1]) / pair[0]
						worst = math.Max(worst, rel)
						if !(rel <= translationTol) {
							t.Fatalf("curve %d, parameter %d, L=%d, λ=%g: criterion %v, translated %v (relative %.3g > %g)",
								i, k, dim, lambda, pair[0], pair[1], rel, translationTol)
						}
					}
					scores[k] = append(scores[k], fa.LOOCV)
				}
			}
		}
		a, err := fda.FitSample(s, ladder)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fda.FitSample(shifted, ladder)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.Params {
			fits++
			fa, fb := a.Params[k], b.Params[k]
			if fa.Basis.Dim() == fb.Basis.Dim() && math.Float64bits(fa.Lambda) == math.Float64bits(fb.Lambda) {
				continue
			}
			best, second := twoSmallest(scores[k])
			if (second-best)/best > translationTol {
				t.Fatalf("curve %d, parameter %d: selected (L=%d, λ=%g), translated (L=%d, λ=%g), but the best two criteria %v and %v are not within %g",
					i, k, fa.Basis.Dim(), fa.Lambda, fb.Basis.Dim(), fb.Lambda, best, second, translationTol)
			}
			moved++
		}
		for k := range scores {
			if best, second := twoSmallest(scores[k]); (second-best)/best <= translationTol {
				close++
			}
		}
	}
	t.Logf("%d fits: criteria agree within a relative %.2g (tolerance %g); %d have their best two candidates within it, %d selections moved",
		fits, worst, translationTol, close, moved)
}

// twoSmallest returns the smallest and second smallest of xs.
func twoSmallest(xs []float64) (a, b float64) {
	a, b = math.Inf(1), math.Inf(1)
	for _, x := range xs {
		switch {
		case x < a:
			a, b = x, a
		case x < b:
			b = x
		}
	}
	return a, b
}
