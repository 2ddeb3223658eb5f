package fda_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// TestSelectionMatchesSolveDotHat: the selected-inverse hat diagonal
// moves the selection criteria in their last bits, never a selection.
// On the Fig. 3 data (seed 1), every curve, a jittered copy of it and
// every five-point stream prefix is fit by FitSample or Incremental.Fit
// and by fda.SolveDotFit, whose criteria read the hat diagonal of one
// SolveInto and one Dot per row. Both must select the same (L, λ) with
// bitwise the same coefficients, or both must fail.
func TestSelectionMatchesSolveDotHat(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Domain()
	opt := fda.Options{Lo: lo, Hi: hi, Cache: fda.NewBasisCache()}
	rng := rand.New(rand.NewSource(1))
	fits := 0
	check := func(what string, got *fda.Fit, gotErr error, ts []float64, ys [][]float64) {
		t.Helper()
		want, wantErr := fda.SolveDotFit(ts, ys, opt)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, solve-dot reference error %v", what, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		for k, w := range want.Params {
			g := got.Params[k]
			fits++
			if g.Basis.Dim() != w.Basis.Dim() || math.Float64bits(g.Lambda) != math.Float64bits(w.Lambda) {
				t.Fatalf("%s, parameter %d: selected (L=%d, λ=%g), reference (L=%d, λ=%g)", what, k, g.Basis.Dim(), g.Lambda, w.Basis.Dim(), w.Lambda)
			}
			for i := range w.Coef {
				if math.Float64bits(g.Coef[i]) != math.Float64bits(w.Coef[i]) {
					t.Fatalf("%s, parameter %d: coef %d = %v, reference %v", what, k, i, g.Coef[i], w.Coef[i])
				}
			}
		}
	}
	for i, s := range d.Samples {
		got, err := fda.FitSample(s, opt)
		check(fmt.Sprintf("curve %d", i), got, err, s.Times, s.Values)

		jittered := fda.Sample{Times: jitter(s.Times, rng), Values: s.Values}
		got, err = fda.FitSample(jittered, opt)
		check(fmt.Sprintf("jittered curve %d", i), got, err, jittered.Times, jittered.Values)

		inc, err := fda.NewIncremental(len(s.Values), opt)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(s.Values))
		for j, tj := range s.Times {
			for k := range vals {
				vals[k] = s.Values[k][j]
			}
			if err := inc.Append(tj, vals); err != nil {
				t.Fatal(err)
			}
			if (j+1)%5 != 0 && j+1 < len(s.Times) {
				continue
			}
			prefix := make([][]float64, len(s.Values))
			for k := range prefix {
				prefix[k] = s.Values[k][:j+1]
			}
			got, err := inc.Fit()
			check(fmt.Sprintf("curve %d, %d-point prefix", i, j+1), got, err, s.Times[:j+1], prefix)
		}
	}
	t.Logf("%d parameter fits select as with the solve-dot hat", fits)
}

// jitter returns ts with every interior time moved by up to ±10% of the
// mean spacing, a grid new to the basis cache with the same endpoints.
func jitter(ts []float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), ts...)
	h := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	for j := 1; j < len(out)-1; j++ {
		out[j] += (2*rng.Float64() - 1) * 0.1 * h
	}
	return out
}
