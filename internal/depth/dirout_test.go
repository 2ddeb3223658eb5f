package depth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// makeCurves builds n univariate-as-p=1 functional samples sin(2πt)+noise
// on an m-grid, as n × 1 × m.
func makeCurves(rng *rand.Rand, n, m int, noise float64) [][][]float64 {
	out := make([][][]float64, n)
	for i := range out {
		vals := make([]float64, m)
		for j := range vals {
			tt := float64(j) / float64(m-1)
			vals[j] = math.Sin(2*math.Pi*tt) + noise*rng.NormFloat64()
		}
		out[i] = [][]float64{vals}
	}
	return out
}

// shiftCurve returns a vertically shifted copy (isolated magnitude for a
// stretch of the grid when localized, persistent when global).
func shiftCurve(base [][]float64, delta float64, from, to int) [][]float64 {
	out := make([][]float64, len(base))
	for k := range base {
		row := append([]float64{}, base[k]...)
		for j := from; j < to && j < len(row); j++ {
			row[j] += delta
		}
		out[k] = row
	}
	return out
}

func TestDirOutFlagsMagnitudeOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := makeCurves(rng, 60, 50, 0.05)
	d, err := FitDirOut(train, ProjectionOptions{Directions: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	normal := makeCurves(rng, 1, 50, 0.05)[0]
	outlier := shiftCurve(normal, 3, 0, 50)
	sn, err := d.Score(normal)
	if err != nil {
		t.Fatal(err)
	}
	so, err := d.Score(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if so <= 5*sn {
		t.Fatalf("shift outlier FO %g not ≫ inlier FO %g", so, sn)
	}
}

func TestDirOutComponentsSeparateClasses(t *testing.T) {
	// A constant global shift has high ‖MO‖ and low VO; an isolated spike
	// on a few points contributes mainly variability (VO relative to its
	// MO) — the decomposition Dai & Genton use to classify outliers.
	rng := rand.New(rand.NewSource(3))
	train := makeCurves(rng, 80, 60, 0.05)
	d, err := FitDirOut(train, ProjectionOptions{Directions: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := makeCurves(rng, 1, 60, 0.05)[0]
	shifted := shiftCurve(base, 2, 0, 60) // persistent magnitude
	spiked := shiftCurve(base, 6, 28, 32) // isolated spike

	moS, voS, err := d.Components(shifted)
	if err != nil {
		t.Fatal(err)
	}
	moI, voI, err := d.Components(spiked)
	if err != nil {
		t.Fatal(err)
	}
	normMO := func(mo []float64) float64 {
		var s float64
		for _, v := range mo {
			s += v * v
		}
		return math.Sqrt(s)
	}
	// Persistent shift: MO dominates VO.
	if normMO(moS)*normMO(moS) < voS {
		t.Fatalf("persistent shift: ‖MO‖²=%g should dominate VO=%g", normMO(moS)*normMO(moS), voS)
	}
	// Isolated spike: VO dominates its squared MO.
	if voI < normMO(moI)*normMO(moI) {
		t.Fatalf("isolated spike: VO=%g should dominate ‖MO‖²=%g", voI, normMO(moI)*normMO(moI))
	}
}

func TestDirOutScoreBatchAndValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := makeCurves(rng, 30, 40, 0.05)
	opt := ProjectionOptions{Directions: 10, Seed: 6}
	if _, err := FitDirOut(nil, opt); !errors.Is(err, ErrDepth) {
		t.Fatal("empty fit must fail")
	}
	d, err := FitDirOut(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := d.ScoreBatch(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(train) {
		t.Fatalf("scores = %d want %d", len(scores), len(train))
	}
	for i, s := range scores {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("FO[%d] = %g must be non-negative", i, s)
		}
	}
	// Wrong shapes.
	if _, err := d.Score([][]float64{train[0][0], train[0][0]}); !errors.Is(err, ErrDepth) {
		t.Fatal("wrong parameter count must fail")
	}
	if _, err := d.Score([][]float64{train[0][0][:10]}); !errors.Is(err, ErrDepth) {
		t.Fatal("wrong grid length must fail")
	}
}

func TestDirOutBivariateCorrelationOutlier(t *testing.T) {
	// Inliers: x2 = x1; outlier: x2 = −x1, marginally typical.
	rng := rand.New(rand.NewSource(7))
	m := 40
	mk := func(sign float64) [][]float64 {
		x1 := make([]float64, m)
		x2 := make([]float64, m)
		for j := 0; j < m; j++ {
			tt := float64(j) / float64(m-1)
			v := math.Sin(2*math.Pi*tt) + 0.05*rng.NormFloat64()
			x1[j] = v
			x2[j] = sign*v + 0.05*rng.NormFloat64()
		}
		return [][]float64{x1, x2}
	}
	train := make([][][]float64, 50)
	for i := range train {
		train[i] = mk(1)
	}
	d, err := FitDirOut(train, ProjectionOptions{Directions: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sIn, err := d.Score(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	sOut, err := d.Score(mk(-1))
	if err != nil {
		t.Fatal(err)
	}
	if sOut <= 3*sIn {
		t.Fatalf("correlation outlier FO %g not ≫ inlier FO %g", sOut, sIn)
	}
}
