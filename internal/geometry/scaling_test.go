package geometry

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// TestCurvatureScalesInverselyBitwise: scaling every parameter of a
// curve by s divides its curvature by s. The smoother is linear and its
// criteria scale by s², so for a power-of-two s the scaled curve
// selects the same (L, λ) and its coefficients are exactly s times the
// unscaled ones, through FitSample and through Incremental.Fit; κ is
// then exactly κ/s wherever both paths have ‖v‖² ≥ Eps and κ under its
// cap. Fig. 3 data, seed 1.
func TestCurvatureScalesInverselyBitwise(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Domain()
	opt := fda.Options{Lo: lo, Hi: hi, Cache: fda.NewBasisCache()}
	paths := []struct {
		name string
		fit  func(fda.Sample) (*fda.Fit, error)
	}{
		{"FitSample", func(s fda.Sample) (*fda.Fit, error) { return fda.FitSample(s, opt) }},
		{"Incremental.Fit", func(s fda.Sample) (*fda.Fit, error) {
			inc, err := fda.NewIncremental(len(s.Values), opt)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, len(s.Values))
			for j, tj := range s.Times {
				for k := range vals {
					vals[k] = s.Values[k][j]
				}
				if err := inc.Append(tj, vals); err != nil {
					return nil, err
				}
			}
			return inc.Fit()
		}},
	}
	kappa := Curvature{}
	const ceiling = 1e3 // Curvature's default Max
	fits, points := 0, 0
	for i, s := range d.Samples {
		for _, path := range paths {
			base, err := path.fit(s)
			if err != nil {
				t.Fatal(err)
			}
			k0, err := kappa.Map(base, s.Times)
			if err != nil {
				t.Fatal(err)
			}
			v0 := base.EvalGrid(s.Times, 1)
			for _, sc := range []float64{0.25, 0.5, 2, 4} {
				what := fmt.Sprintf("curve %d, %s, s = %g", i, path.name, sc)
				scaled := fda.Sample{Times: s.Times, Values: make([][]float64, len(s.Values))}
				for k, row := range s.Values {
					scaled.Values[k] = make([]float64, len(row))
					for j, v := range row {
						scaled.Values[k][j] = sc * v
					}
				}
				fit, err := path.fit(scaled)
				if err != nil {
					t.Fatal(err)
				}
				fits++
				for k, p := range fit.Params {
					b := base.Params[k]
					if p.Basis.Dim() != b.Basis.Dim() || math.Float64bits(p.Lambda) != math.Float64bits(b.Lambda) {
						t.Fatalf("%s, parameter %d: selected (L=%d, λ=%g), unscaled (L=%d, λ=%g)", what, k, p.Basis.Dim(), p.Lambda, b.Basis.Dim(), b.Lambda)
					}
					for c, v := range p.Coef {
						if math.Float64bits(v) != math.Float64bits(sc*b.Coef[c]) {
							t.Fatalf("%s, parameter %d: coef %d = %v, want %v", what, k, c, v, sc*b.Coef[c])
						}
					}
				}
				ks, err := kappa.Map(fit, s.Times)
				if err != nil {
					t.Fatal(err)
				}
				vs := fit.EvalGrid(s.Times, 1)
				for j := range s.Times {
					var vv0, vvs float64
					for k := range vs {
						vv0 += v0[k][j] * v0[k][j]
						vvs += vs[k][j] * vs[k][j]
					}
					if vv0 < Eps || vvs < Eps || !(k0[j] < ceiling) || !(ks[j] < ceiling) {
						continue
					}
					points++
					if math.Float64bits(ks[j]) != math.Float64bits(k0[j]/sc) {
						t.Fatalf("%s, point %d: κ = %v, want κ/s = %v", what, j, ks[j], k0[j]/sc)
					}
				}
			}
		}
	}
	t.Logf("%d scaled fits, %d curvature points exactly κ/s", fits, points)
}
