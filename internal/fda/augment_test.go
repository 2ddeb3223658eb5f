package fda

import (
	"errors"
	"math"
	"testing"
)

func TestAugmentWithDerivatives(t *testing.T) {
	m := 60
	ts := UniformGrid(0, 1, m)
	ys := make([]float64, m)
	for i, tt := range ts {
		ys[i] = math.Sin(2 * math.Pi * tt)
	}
	d := Dataset{
		Samples: []Sample{{Times: ts, Values: [][]float64{ys}}},
		Labels:  []int{0},
	}
	aug, err := AugmentWithDerivatives(d, Options{Dims: []int{15}, Lambdas: []float64{0}}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := aug.Samples[0]
	if s.Dim() != 3 {
		t.Fatalf("augmented dim = %d want 3 (x, D1x, D2x)", s.Dim())
	}
	if aug.Labels[0] != 0 {
		t.Fatal("labels must carry through")
	}
	// D1 sin(2πt) = 2π cos(2πt) in the interior.
	for j := m / 4; j < 3*m/4; j++ {
		want := 2 * math.Pi * math.Cos(2*math.Pi*ts[j])
		if math.Abs(s.Values[1][j]-want) > 0.7 {
			t.Fatalf("D1 at %g = %g want %g", ts[j], s.Values[1][j], want)
		}
	}
	// D2 sin(2πt) = −(2π)² sin(2πt): check the sign structure at the peak.
	peak := m / 4 // t ≈ 0.25 where sin = 1, D2 < 0
	if s.Values[2][peak] >= 0 {
		t.Fatalf("D2 at the peak = %g want negative", s.Values[2][peak])
	}
}

func TestAugmentWithDerivativesValidation(t *testing.T) {
	d := Dataset{Samples: []Sample{{Times: []float64{0, 0.5, 1}, Values: [][]float64{{1, 2, 3}}}}}
	if _, err := AugmentWithDerivatives(d, Options{}, nil); !errors.Is(err, ErrData) {
		t.Fatal("no orders must fail")
	}
	if _, err := AugmentWithDerivatives(d, Options{}, []int{0}); !errors.Is(err, ErrData) {
		t.Fatal("order 0 must fail")
	}
	if _, err := AugmentWithDerivatives(Dataset{}, Options{}, []int{1}); !errors.Is(err, ErrData) {
		t.Fatal("empty dataset must fail")
	}
}

func TestCriterionGCVSelectsReasonableModel(t *testing.T) {
	ts, ys := sinSample(60, 0.05, 11)
	loocvFit, err := fitCurve(ts, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gcvFit, err := fitCurve(ts, ys, Options{Criterion: GCV})
	if err != nil {
		t.Fatal(err)
	}
	// Both criteria should land on models that reconstruct the sine well.
	for _, fit := range []*CurveFit{loocvFit, gcvFit} {
		if e := math.Abs(fit.Eval(0.25, 0) - 1); e > 0.1 {
			t.Fatalf("criterion fit error at peak = %g", e)
		}
	}
	if gcvFit.GCV <= 0 || loocvFit.LOOCV <= 0 {
		t.Fatal("criterion scores must be positive on noisy data")
	}
	// The Score field reflects the driving criterion.
	if loocvFit.Score != loocvFit.LOOCV {
		t.Fatal("LOOCV fit must be scored by LOOCV")
	}
	if gcvFit.Score != gcvFit.GCV {
		t.Fatal("GCV fit must be scored by GCV")
	}
}

func TestCriterionString(t *testing.T) {
	if LOOCV.String() != "loocv" || GCV.String() != "gcv" {
		t.Fatal("criterion names wrong")
	}
	if Criterion(9).String() == "" {
		t.Fatal("unknown criterion must stringify")
	}
}
