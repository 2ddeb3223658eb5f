package iforest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianCloud returns n points in dim dimensions around the origin, with
// one far outlier appended when outlier is true.
func gaussianCloud(rng *rand.Rand, n, dim int) [][]float64 {
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

func TestAveragePathLength(t *testing.T) {
	if averagePathLength(0) != 0 || averagePathLength(1) != 0 {
		t.Fatal("c(n<=1) must be 0")
	}
	if averagePathLength(2) != 1 {
		t.Fatal("c(2) must be 1")
	}
	// c(256) ≈ 10.24 (Liu et al.).
	if got := averagePathLength(256); math.Abs(got-10.24) > 0.1 {
		t.Fatalf("c(256) = %g want ≈10.24", got)
	}
	// Monotone in n.
	prev := 0.0
	for n := 2; n < 100; n++ {
		cur := averagePathLength(n)
		if cur <= prev {
			t.Fatalf("c(n) not increasing at n=%d", n)
		}
		prev = cur
	}
}

// fit grows a forest on x, failing the test on an error.
func fit(t testing.TB, opt Options, x [][]float64) *Forest {
	t.Helper()
	m, err := opt.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Forest)
}

func TestFitRejectsEmpty(t *testing.T) {
	var opt Options
	if _, err := opt.Fit(nil); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := opt.Fit([][]float64{{}}); err == nil {
		t.Fatal("zero-dim features must fail")
	}
	if _, err := opt.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged features must fail")
	}
}

func TestScoreDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := fit(t, Options{Seed: 1}, gaussianCloud(rng, 50, 3))
	if _, err := f.Score([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestScoresInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := gaussianCloud(rng, 100, 4)
	f := fit(t, Options{Seed: 2}, x)
	scores, err := f.ScoreBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s <= 0 || s >= 1 {
			t.Fatalf("score[%d] = %g outside (0,1)", i, s)
		}
	}
}

func TestOutlierScoresHigher(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := gaussianCloud(rng, 200, 2)
	f := fit(t, Options{Seed: 3}, x)
	far, err := f.Score([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	center, err := f.Score([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if far <= center {
		t.Fatalf("outlier score %g <= inlier score %g", far, center)
	}
	if far < 0.6 {
		t.Fatalf("far outlier score %g suspiciously low", far)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := gaussianCloud(rng, 80, 3)
	score := func() float64 {
		f := fit(t, Options{Seed: 99}, x)
		s, err := f.Score(x[0])
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if score() != score() {
		t.Fatal("forest must be deterministic for a fixed seed")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := gaussianCloud(rng, 80, 3)
	f1 := fit(t, Options{Seed: 1}, x)
	f2 := fit(t, Options{Seed: 2}, x)
	s1, _ := f1.Score(x[0])
	s2, _ := f2.Score(x[0])
	if s1 == s2 {
		t.Fatal("different seeds should give different ensembles")
	}
}

func TestConstantDataYieldsLeafForest(t *testing.T) {
	// Constant features cannot be split; every point should get the same
	// score and nothing should crash.
	x := make([][]float64, 30)
	for i := range x {
		x[i] = []float64{1, 1}
	}
	f := fit(t, Options{Seed: 6}, x)
	s1, err := f.Score([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := f.Score([]float64{1, 1})
	if s1 != s2 {
		t.Fatal("scores on identical points must agree")
	}
}

func TestSubsampleSmallerThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := gaussianCloud(rng, 500, 2)
	f := fit(t, Options{Seed: 7, SampleSize: 64, Trees: 50}, x)
	if len(f.roots) != 50 {
		t.Fatalf("tree count = %d want 50", len(f.roots))
	}
	s, err := f.Score([]float64{8, -8})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.6 {
		t.Fatalf("outlier score %g too low with subsampling", s)
	}
}

// Property: scores are bounded and batch scoring matches single scoring.
func TestScoreBatchMatchesScoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := gaussianCloud(rng, 40, 2)
		m, err := Options{Seed: seed}.Fit(x)
		if err != nil {
			return false
		}
		forest := m.(*Forest)
		batch, err := forest.ScoreBatch(x[:5])
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			single, err := forest.Score(x[i])
			if err != nil || single != batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAnomalyScoreFormula(t *testing.T) {
	// A point isolated at depth d in every tree must score 2^{−(d+adj)/c(ψ)}.
	// With identical training points plus one far point and depth-1 splits
	// this is hard to pin exactly, so instead verify the documented bound:
	// the minimum achievable average path gives score < 1 and the deepest
	// gives score > 0 — covered above — and that scores decrease as points
	// approach the training mass.
	rng := rand.New(rand.NewSource(8))
	x := gaussianCloud(rng, 150, 1)
	f := fit(t, Options{Seed: 8}, x)
	prev := math.Inf(1)
	for _, q := range []float64{12, 6, 3, 0} {
		s, err := f.Score([]float64{q})
		if err != nil {
			t.Fatal(err)
		}
		if s > prev+0.02 {
			t.Fatalf("score at %g = %g not decreasing toward the mass", q, s)
		}
		prev = s
	}
}

// refScore is the reference walk: one tree at a time, a plain branch
// per level, path lengths added in tree order.
func refScore(f *Forest, xq []float64) float64 {
	var sum float64
	for _, root := range f.roots {
		at, depth := root, 0.0
		for f.nodes[at].attr >= 0 {
			nd := f.nodes[at]
			if xq[nd.attr] < nd.value {
				at = nd.child
			} else {
				at = nd.child + 1
			}
			depth++
		}
		sum += depth + f.nodes[at].value
	}
	return math.Pow(2, -(sum/float64(len(f.roots)))/f.cPsi)
}

// TestScoreMatchesReferenceWalk pins the four-way branch-free walk to
// the one-tree-at-a-time reference, bit for bit, for tree counts with
// and without a tail of fewer than four trees, on queries with NaN
// features (NaN compares false, so it goes right) and with far
// outliers.
func TestScoreMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := gaussianCloud(rng, 200, 5)
	queries := gaussianCloud(rng, 40, 5)
	for i, q := range queries {
		switch i % 4 {
		case 1:
			q[i%5] = math.NaN()
		case 2:
			for j := range q {
				q[j] = math.NaN()
			}
		case 3:
			q[0] = 1e6
		}
	}
	for _, trees := range []int{30, 50, 301} {
		f := fit(t, Options{Trees: trees, SampleSize: 64, Seed: int64(trees)}, x)
		for i, q := range queries {
			got, err := f.Score(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := refScore(f, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trees=%d query %d: Score %v, reference walk %v", trees, i, got, want)
			}
		}
	}
}
