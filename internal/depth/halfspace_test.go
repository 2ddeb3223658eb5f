package depth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMFHDUnivariatePointDepthExact(t *testing.T) {
	// For p = 1 the halfspace depth is the exact one-sided tail fraction.
	// Constant curves at 1..5, m = 1 grid point.
	train := [][][]float64{{{1}}, {{2}}, {{3}}, {{4}}, {{5}}}
	h, err := FitMFHD(train, ProjectionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Depth of the median (3) is 3/5 one-sided min(3,3)/5; score 1−2·(3/5)?
	// min(#≤3, #≥3)/5 = 3/5 → clipped at the definition: Tukey depth of a
	// sample point counts itself on both sides. Score = 1 − 2·0.6 = −0.2?
	// The scaling assumes depth ≤ 1/2 for continuous data; with ties the
	// score can go slightly negative, but the ORDERING is what matters:
	// median deepest, extremes shallowest.
	scores, err := h.ScoreBatch(train)
	if err != nil {
		t.Fatal(err)
	}
	if !(scores[0] > scores[1] && scores[1] > scores[2]) {
		t.Fatalf("halfspace ordering violated: %v", scores)
	}
	if math.Abs(scores[0]-scores[4]) > 1e-12 || math.Abs(scores[1]-scores[3]) > 1e-12 {
		t.Fatalf("symmetry violated: %v", scores)
	}
	// Extreme curve: min tail = 1/5 → score 1 − 2/5 = 0.6.
	if math.Abs(scores[0]-0.6) > 1e-12 {
		t.Fatalf("extreme score = %g want 0.6", scores[0])
	}
}

func TestMFHDFlagsMagnitudeOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := makeCurves(rng, 50, 40, 0.05)
	h, err := FitMFHD(train, ProjectionOptions{Directions: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	normal := makeCurves(rng, 1, 40, 0.05)[0]
	outlier := shiftCurve(normal, 4, 0, 40)
	sn, err := h.Score(normal)
	if err != nil {
		t.Fatal(err)
	}
	so, err := h.Score(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if so <= sn {
		t.Fatalf("outlier %g not above inlier %g", so, sn)
	}
	// Fully external curve: pointwise depth 0 everywhere → score 1.
	if math.Abs(so-1) > 1e-9 {
		t.Fatalf("external curve score = %g want 1", so)
	}
}

func TestMFHDBivariate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := 30
	mk := func(center float64) [][]float64 {
		x1 := make([]float64, m)
		x2 := make([]float64, m)
		for j := range x1 {
			x1[j] = center + 0.1*rng.NormFloat64()
			x2[j] = center + 0.1*rng.NormFloat64()
		}
		return [][]float64{x1, x2}
	}
	train := make([][][]float64, 40)
	for i := range train {
		train[i] = mk(0)
	}
	h, err := FitMFHD(train, ProjectionOptions{Directions: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sIn, err := h.Score(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	sOut, err := h.Score(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if sOut <= sIn {
		t.Fatalf("bivariate outlier %g not above inlier %g", sOut, sIn)
	}
}

func TestMFHDValidation(t *testing.T) {
	if _, err := FitMFHD(nil, ProjectionOptions{}); !errors.Is(err, ErrDepth) {
		t.Fatal("empty fit must fail")
	}
	rng := rand.New(rand.NewSource(6))
	train := makeCurves(rng, 10, 20, 0.05)
	h, err := FitMFHD(train, ProjectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Score([][]float64{{1, 2}}); !errors.Is(err, ErrDepth) {
		t.Fatal("grid mismatch must fail")
	}
	if _, err := h.Score(append(train[0], train[0][0])); !errors.Is(err, ErrDepth) {
		t.Fatal("parameter mismatch must fail")
	}
}
