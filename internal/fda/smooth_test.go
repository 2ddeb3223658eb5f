package fda

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bspline"
)

func sinSample(m int, noise float64, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ts := UniformGrid(0, 1, m)
	ys := make([]float64, m)
	for i, tt := range ts {
		ys[i] = math.Sin(2*math.Pi*tt) + noise*rng.NormFloat64()
	}
	return ts, ys
}

// fitCurve fits one univariate parameter observed at ts: FitSample on a
// one-parameter sample.
func fitCurve(ts, ys []float64, opt Options) (*CurveFit, error) {
	fit, err := FitSample(Sample{Times: ts, Values: [][]float64{ys}}, opt)
	if err != nil {
		return nil, err
	}
	return fit.Params[0], nil
}

func TestFitCurveRecoversSmoothFunction(t *testing.T) {
	ts, ys := sinSample(60, 0.02, 1)
	fit, err := fitCurve(ts, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for _, tt := range UniformGrid(0.05, 0.95, 50) {
		if e := math.Abs(fit.Eval(tt, 0) - math.Sin(2*math.Pi*tt)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.08 {
		t.Fatalf("max reconstruction error = %g", maxErr)
	}
}

func TestFitCurveDerivativeAccuracy(t *testing.T) {
	ts, ys := sinSample(80, 0.01, 2)
	fit, err := fitCurve(ts, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// D1 sin(2πt) = 2π cos(2πt); check in the interior.
	var maxErr float64
	for _, tt := range UniformGrid(0.15, 0.85, 30) {
		want := 2 * math.Pi * math.Cos(2*math.Pi*tt)
		if e := math.Abs(fit.Eval(tt, 1) - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1.0 { // ~15% of the derivative's amplitude
		t.Fatalf("max derivative error = %g", maxErr)
	}
}

func TestFitCurveNoiselessInterpolatesClosely(t *testing.T) {
	ts, ys := sinSample(50, 0, 3)
	fit, err := fitCurve(ts, ys, Options{Dims: []int{20}, Lambdas: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		if math.Abs(fit.Eval(tt, 0)-ys[i]) > 1e-3 {
			t.Fatalf("noiseless fit misses point %d by %g", i, fit.Eval(tt, 0)-ys[i])
		}
	}
}

func TestFitCurvePenaltyShrinksRoughness(t *testing.T) {
	ts, ys := sinSample(60, 0.1, 4)
	rough, err := fitCurve(ts, ys, Options{Dims: []int{25}, Lambdas: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := fitCurve(ts, ys, Options{Dims: []int{25}, Lambdas: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	roughness := func(f *CurveFit) float64 {
		var s float64
		for _, tt := range UniformGrid(0.05, 0.95, 100) {
			d2 := f.Eval(tt, 2)
			s += d2 * d2
		}
		return s
	}
	if roughness(smooth) >= roughness(rough) {
		t.Fatalf("penalty did not shrink roughness: %g vs %g", roughness(smooth), roughness(rough))
	}
}

func TestFitCurveSelectsAmongDims(t *testing.T) {
	ts, ys := sinSample(60, 0.05, 5)
	fit, err := fitCurve(ts, ys, Options{Dims: []int{6, 12, 18}})
	if err != nil {
		t.Fatal(err)
	}
	got := fit.Basis.Dim()
	if got != 6 && got != 12 && got != 18 {
		t.Fatalf("selected dim %d not among candidates", got)
	}
	if fit.LOOCV <= 0 {
		t.Fatalf("LOOCV score %g should be positive with noisy data", fit.LOOCV)
	}
	if fit.DF <= 0 || fit.DF > float64(got) {
		t.Fatalf("effective df %g outside (0, %d]", fit.DF, got)
	}
}

func TestFitCurveErrors(t *testing.T) {
	if _, err := fitCurve([]float64{0, 1}, []float64{1}, Options{}); !errors.Is(err, ErrData) {
		t.Fatal("length mismatch must fail")
	}
	if _, err := fitCurve([]float64{0}, []float64{1}, Options{}); !errors.Is(err, ErrData) {
		t.Fatal("single point must fail")
	}
}

func TestFitCurveFourierBasis(t *testing.T) {
	ts, ys := sinSample(60, 0.02, 6)
	fit, err := fitCurve(ts, ys, Options{
		Dims: []int{5, 9},
		Basis: func(dim int, lo, hi float64) (bspline.Basis, error) {
			if dim%2 == 0 {
				dim++
			}
			return bspline.NewFourier(dim, lo, hi)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(fit.Eval(0.25, 0) - 1); e > 0.05 {
		t.Fatalf("fourier fit error at peak = %g", e)
	}
}

func TestFitSampleAllParams(t *testing.T) {
	ts := UniformGrid(0, 1, 40)
	v1 := make([]float64, len(ts))
	v2 := make([]float64, len(ts))
	for i, tt := range ts {
		v1[i] = math.Sin(2 * math.Pi * tt)
		v2[i] = tt * tt
	}
	s := Sample{Times: ts, Values: [][]float64{v1, v2}}
	fit, err := FitSample(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Dim() != 2 {
		t.Fatalf("fit dim = %d", fit.Dim())
	}
	vals := fit.Eval(0.5, 0)
	if math.Abs(vals[0]) > 0.05 || math.Abs(vals[1]-0.25) > 0.05 {
		t.Fatalf("Eval(0.5) = %v", vals)
	}
	grid := fit.EvalGrid([]float64{0.25, 0.75}, 0)
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("EvalGrid shape wrong")
	}
}

func TestFitDatasetSharedDomain(t *testing.T) {
	mk := func(lo, hi float64) Sample {
		ts := UniformGrid(lo, hi, 30)
		ys := make([]float64, len(ts))
		for i, tt := range ts {
			ys[i] = tt
		}
		return Sample{Times: ts, Values: [][]float64{ys}}
	}
	d := Dataset{Samples: []Sample{mk(0, 1), mk(0.1, 0.9)}}
	fits, err := FitDataset(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fits {
		lo, hi := f.Params[0].Basis.Domain()
		if lo != 0 || hi != 1 {
			t.Fatalf("fit domain = [%g, %g], want dataset domain [0, 1]", lo, hi)
		}
	}
}

func TestCurveFitEvalGridMatchesEval(t *testing.T) {
	ts, ys := sinSample(40, 0.02, 7)
	fit, err := fitCurve(ts, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(0, 1, 11)
	batch := fit.EvalGrid(grid, 1)
	for i, tt := range grid {
		if batch[i] != fit.Eval(tt, 1) {
			t.Fatal("EvalGrid disagrees with Eval")
		}
	}
}
