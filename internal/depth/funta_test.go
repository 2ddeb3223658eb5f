package depth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFUNTAShapeOutlierScoresHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := 60
	train := makeCurves(rng, 40, m, 0.03)
	f, err := FitFUNTA(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shape outlier: doubled frequency, same range — crosses the bundle
	// at steep angles.
	shape := make([]float64, m)
	for j := range shape {
		tt := float64(j) / float64(m-1)
		shape[j] = math.Sin(4 * math.Pi * tt)
	}
	sShape, err := f.Score([][]float64{shape})
	if err != nil {
		t.Fatal(err)
	}
	sNormal, err := f.Score(makeCurves(rng, 1, m, 0.03)[0])
	if err != nil {
		t.Fatal(err)
	}
	if sShape <= sNormal {
		t.Fatalf("shape outlier %g not above inlier %g", sShape, sNormal)
	}
}

func TestFUNTABlindToPureShift(t *testing.T) {
	// A curve far above the bundle never crosses it: zero intersections,
	// outlyingness 0 — exactly the blindness the paper exploits.
	rng := rand.New(rand.NewSource(2))
	m := 50
	train := makeCurves(rng, 30, m, 0.03)
	f, err := FitFUNTA(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	shifted := shiftCurve(makeCurves(rng, 1, m, 0.0)[0], 10, 0, m)
	s, err := f.Score(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("non-crossing curve score = %g want 0", s)
	}
}

func TestFUNTAScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := makeCurves(rng, 30, 40, 0.05)
	f, err := FitFUNTA(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := f.ScoreBatch(train)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("FUNTA score[%d] = %g outside [0,1]", i, s)
		}
	}
}

func TestFUNTAUsesGridSpacing(t *testing.T) {
	// The same curves on a stretched grid have shallower slopes; the
	// intersection angles and hence the scores must change accordingly.
	rng := rand.New(rand.NewSource(4))
	m := 40
	train := makeCurves(rng, 20, m, 0.05)
	query := makeCurves(rng, 1, m, 0.3)[0]

	unit, err := FitFUNTA(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	sUnit, err := unit.Score(query)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, m)
	for j := range times {
		times[j] = float64(j) * 100 // stretched grid: slopes ×1/100
	}
	stretched, err := FitFUNTA(train, times)
	if err != nil {
		t.Fatal(err)
	}
	sStretched, err := stretched.Score(query)
	if err != nil {
		t.Fatal(err)
	}
	if sStretched >= sUnit {
		t.Fatalf("stretched-grid score %g should be below unit-grid score %g", sStretched, sUnit)
	}
}

func TestFUNTAValidation(t *testing.T) {
	if _, err := FitFUNTA(nil, nil); !errors.Is(err, ErrDepth) {
		t.Fatal("empty fit must fail")
	}
	if _, err := FitFUNTA([][][]float64{{{1}}}, nil); !errors.Is(err, ErrDepth) {
		t.Fatal("single-point grid must fail")
	}
	rng := rand.New(rand.NewSource(5))
	train := makeCurves(rng, 10, 20, 0.05)
	if _, err := FitFUNTA(train, make([]float64, 7)); !errors.Is(err, ErrDepth) {
		t.Fatal("grid length mismatch must fail")
	}
	f, err := FitFUNTA(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Score([][]float64{{1, 2}}); !errors.Is(err, ErrDepth) {
		t.Fatal("grid mismatch on score must fail")
	}
}

func TestCrossingAnglesCountsTransversals(t *testing.T) {
	f, err := FitFUNTA([][][]float64{{{0, 0, 0, 0}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One strict sign change between a rising and a flat curve.
	sum, count := f.crossingAngles([]float64{-1, -0.5, 0.5, 1}, []float64{0, 0, 0, 0})
	if count != 1 {
		t.Fatalf("crossings = %d want 1", count)
	}
	if sum <= 0 {
		t.Fatalf("angle sum = %g want > 0", sum)
	}
	// Identical curves: overlapping, no transversal crossing.
	_, count = f.crossingAngles([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	if count != 0 {
		t.Fatalf("identical curves crossings = %d want 0", count)
	}
}
