package depth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestBandDepthCenterOutwardOrdering(t *testing.T) {
	// Constant curves at levels 0..4: the middle level lies in the most
	// bands, so outlyingness (1 − MBD) must increase outward.
	n, m := 5, 10
	train := make([][][]float64, n)
	for i := range train {
		row := make([]float64, m)
		for j := range row {
			row[j] = float64(i)
		}
		train[i] = [][]float64{row}
	}
	b, err := FitBandDepth(train)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := b.ScoreBatch(train)
	if err != nil {
		t.Fatal(err)
	}
	if !(scores[2] < scores[1] && scores[1] < scores[0]) {
		t.Fatalf("outward ordering violated: %v", scores)
	}
	if math.Abs(scores[1]-scores[3]) > 1e-12 || math.Abs(scores[0]-scores[4]) > 1e-12 {
		t.Fatalf("symmetry violated: %v", scores)
	}
}

func TestBandDepthExactSmallCase(t *testing.T) {
	// Three constant curves 0, 1, 2 with m = 1. Bands: C(3,2) = 3.
	// The middle curve (1) is contained in bands {0,2} (strictly), and in
	// the two bands it belongs to itself ({0,1}, {1,2}) — MBD counts a
	// curve as inside bands formed with itself: contained = below·above +
	// equal·(n−1) − C(equal−… ) = 1·1 + 1·2 − 0 = 3 → depth 1.
	train := [][][]float64{{{0}}, {{1}}, {{2}}}
	b, err := FitBandDepth(train)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := b.Score(train[1])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mid-0) > 1e-12 { // outlyingness = 1 − depth = 0
		t.Fatalf("middle outlyingness = %g want 0", mid)
	}
	// The extreme curve 0: contained in bands {0,1}, {0,2} (endpoints
	// count) but not {1,2} → depth 2/3, outlyingness 1/3.
	lo, err := b.Score(train[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1.0/3) > 1e-12 {
		t.Fatalf("extreme outlyingness = %g want 1/3", lo)
	}
}

func TestBandDepthFlagsShiftOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := makeCurves(rng, 40, 30, 0.05)
	b, err := FitBandDepth(train)
	if err != nil {
		t.Fatal(err)
	}
	normal := makeCurves(rng, 1, 30, 0.05)[0]
	outlier := shiftCurve(normal, 5, 0, 30)
	sn, err := b.Score(normal)
	if err != nil {
		t.Fatal(err)
	}
	so, err := b.Score(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if so <= sn {
		t.Fatalf("shift outlier %g not above inlier %g", so, sn)
	}
	if math.Abs(so-1) > 1e-9 {
		t.Fatalf("fully external curve outlyingness = %g want 1", so)
	}
}

func TestBandDepthValidation(t *testing.T) {
	if _, err := FitBandDepth([][][]float64{{{1}}}); !errors.Is(err, ErrDepth) {
		t.Fatal("n < 2 must fail")
	}
	rng := rand.New(rand.NewSource(2))
	train := makeCurves(rng, 10, 20, 0.05)
	b, err := FitBandDepth(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Score([][]float64{{1, 2}}); !errors.Is(err, ErrDepth) {
		t.Fatal("grid mismatch must fail")
	}
}

func TestFraimanMunizCenterOutward(t *testing.T) {
	n, m := 5, 8
	train := make([][][]float64, n)
	for i := range train {
		row := make([]float64, m)
		for j := range row {
			row[j] = float64(i)
		}
		train[i] = [][]float64{row}
	}
	f, err := FitFraimanMuniz(train)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := f.ScoreBatch(train)
	if err != nil {
		t.Fatal(err)
	}
	// Outlyingness must decrease toward the center... the empirical CDF at
	// the lowest curve is 1/5 (dev 0.3) and at the middle 3/5 (dev 0.1).
	if !(scores[0] > scores[2]) {
		t.Fatalf("FM ordering violated: %v", scores)
	}
	// Known values: score = |1/2 − F|, F(level0)=0.2 → 0.3; F(level2)=0.6 → 0.1.
	if math.Abs(scores[0]-0.3) > 1e-12 || math.Abs(scores[2]-0.1) > 1e-12 {
		t.Fatalf("FM exact values wrong: %v", scores)
	}
}

func TestFraimanMunizFlagsMagnitudeNotShape(t *testing.T) {
	// FM depth is pointwise-rank-based: a fully-external magnitude outlier
	// saturates the score at 0.5, strictly above any curve that stays
	// inside the bundle's pointwise range part of the time.
	rng := rand.New(rand.NewSource(3))
	m := 60
	train := makeCurves(rng, 50, m, 0.05)
	f, err := FitFraimanMuniz(train)
	if err != nil {
		t.Fatal(err)
	}
	magnitude := shiftCurve(makeCurves(rng, 1, m, 0.05)[0], 4, 0, m)
	shape := make([]float64, m)
	for j := range shape {
		tt := float64(j) / float64(m-1)
		shape[j] = math.Sin(4 * math.Pi * tt)
	}
	sMag, err := f.Score(magnitude)
	if err != nil {
		t.Fatal(err)
	}
	sShape, err := f.Score([][]float64{shape})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sMag-0.5) > 1e-9 {
		t.Fatalf("fully external curve FM outlyingness = %g want 0.5", sMag)
	}
	if sMag <= sShape {
		t.Fatalf("FM should rank magnitude (%g) above shape (%g)", sMag, sShape)
	}
}

func TestFraimanMunizValidation(t *testing.T) {
	if _, err := FitFraimanMuniz([][][]float64{{{1}}}); !errors.Is(err, ErrDepth) {
		t.Fatal("n < 2 must fail")
	}
	rng := rand.New(rand.NewSource(4))
	train := makeCurves(rng, 10, 20, 0.05)
	f, err := FitFraimanMuniz(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Score(append(train[0], train[0][0])); !errors.Is(err, ErrDepth) {
		t.Fatal("parameter mismatch must fail")
	}
}
