package lof

import (
	"math"
	"math/rand"
	"testing"
)

func cloud(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

// fit fits a LOF on x, failing the test on an error.
func fit(t testing.TB, opt Options, x [][]float64) *LOF {
	t.Helper()
	m, err := opt.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*LOF)
}

// fitKNN fits a kNN-distance detector on x, failing the test on an
// error.
func fitKNN(t testing.TB, opt KNN, x [][]float64) *KNNDist {
	t.Helper()
	m, err := opt.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*KNNDist)
}

func TestLOFInlierNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := cloud(rng, 200, 2)
	l := fit(t, Options{K: 15}, x)
	s, err := l.Score([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.7 || s > 1.4 {
		t.Fatalf("central LOF = %g want ≈1", s)
	}
}

func TestLOFOutlierLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := cloud(rng, 200, 2)
	l := fit(t, Options{K: 15}, x)
	far, err := l.Score([]float64{12, -12})
	if err != nil {
		t.Fatal(err)
	}
	if far < 2 {
		t.Fatalf("far LOF = %g want ≫ 1", far)
	}
}

func TestLOFLocalDensity(t *testing.T) {
	// Two clusters with different densities: a point at the edge of the
	// sparse cluster should not be flagged as strongly as a point equally
	// far from the dense cluster — the classic LOF motivation.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	for i := 0; i < 100; i++ { // dense cluster at (0,0), spread 0.2
		x = append(x, []float64{0.2 * rng.NormFloat64(), 0.2 * rng.NormFloat64()})
	}
	for i := 0; i < 100; i++ { // sparse cluster at (10,10), spread 2
		x = append(x, []float64{10 + 2*rng.NormFloat64(), 10 + 2*rng.NormFloat64()})
	}
	l := fit(t, Options{K: 10}, x)
	nearDense, err := l.Score([]float64{1.0, 1.0}) // 5σ from dense cluster
	if err != nil {
		t.Fatal(err)
	}
	inSparse, err := l.Score([]float64{12, 12}) // 1σ inside sparse cluster
	if err != nil {
		t.Fatal(err)
	}
	if nearDense <= inSparse {
		t.Fatalf("LOF near dense cluster (%g) should exceed LOF inside sparse cluster (%g)", nearDense, inSparse)
	}
}

func TestLOFValidation(t *testing.T) {
	var opt Options
	if _, err := opt.Fit([][]float64{{1}}); err == nil {
		t.Fatal("n<2 must fail")
	}
	if _, err := opt.Fit([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged input must fail")
	}
}

func TestLOFDuplicatePoints(t *testing.T) {
	// Exact duplicates yield infinite density; scoring must stay finite.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	l := fit(t, Options{K: 2}, x)
	s, err := l.Score([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("LOF on duplicates = %g", s)
	}
}

func TestLOFKClamped(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	l := fit(t, Options{K: 50}, x)
	if l.k != 2 {
		t.Fatalf("k = %d want clamped to n-1 = 2", l.k)
	}
}

func TestKNNDistanceOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := cloud(rng, 100, 2)
	d := fitKNN(t, KNN{K: 5}, x)
	near, err := d.Score([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	far, err := d.Score([]float64{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Fatalf("kNN distance far %g <= near %g", far, near)
	}
}

func TestKNNValidation(t *testing.T) {
	if _, err := (KNN{}).Fit(nil); err == nil {
		t.Fatal("empty training must fail")
	}
	if _, err := (KNN{}).Fit([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged input must fail")
	}
	d := fitKNN(t, KNN{}, [][]float64{{1, 2}})
	if _, err := d.Score([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestScoreBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := cloud(rng, 60, 3)
	l := fit(t, Options{K: 8}, x)
	batch, err := l.ScoreBatch(x[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, _ := l.Score(x[i])
		if s != batch[i] {
			t.Fatal("LOF batch and single disagree")
		}
	}
	k := fitKNN(t, KNN{K: 8}, x)
	kb, err := k.ScoreBatch(x[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, _ := k.Score(x[i])
		if s != kb[i] {
			t.Fatal("kNN batch and single disagree")
		}
	}
}
