package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/depth"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

func TestInterpLinearExactOnNodes(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{1, 3, 2, 10}
	got := interpLinear(xs, ys, xs)
	for i := range xs {
		if got[i] != ys[i] {
			t.Fatalf("interp at node %d = %g want %g", i, got[i], ys[i])
		}
	}
}

func TestInterpLinearMidpointsAndClamping(t *testing.T) {
	xs := []float64{0, 2}
	ys := []float64{0, 4}
	got := interpLinear(xs, ys, []float64{-1, 1, 3})
	want := []float64{0, 2, 4} // clamp, midpoint, clamp
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interp = %v want %v", got, want)
		}
	}
}

func TestGridValuesResamples(t *testing.T) {
	d := fda.Dataset{Samples: []fda.Sample{{
		Times:  []float64{0, 1},
		Values: [][]float64{{0, 2}, {1, 1}},
	}}}
	vals, err := GridValues(d, []float64{0, 0.5, 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0][0][1] != 1 {
		t.Fatalf("interpolated midpoint = %g want 1", vals[0][0][1])
	}
	if vals[0][1][1] != 1 {
		t.Fatalf("constant parameter midpoint = %g want 1", vals[0][1][1])
	}
}

func TestRankNormalizeRange(t *testing.T) {
	scores := []float64{5, 1, 3, 3, 9}
	r := RankNormalize(scores)
	for i, v := range r {
		if v <= 0 || v >= 1 {
			t.Fatalf("rank[%d] = %g outside (0,1)", i, v)
		}
	}
	// Largest score gets the largest rank.
	maxIdx := 4
	for i, v := range r {
		if v > r[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx != 4 {
		t.Fatalf("max rank at %d want 4", maxIdx)
	}
	// Ties share a midrank.
	if r[2] != r[3] {
		t.Fatalf("tied scores got ranks %g and %g", r[2], r[3])
	}
	if len(RankNormalize(nil)) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

// Property: rank normalization is monotone — order preserved.
func TestRankNormalizeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(10))
		}
		r := RankNormalize(scores)
		type pair struct{ s, r float64 }
		ps := make([]pair, n)
		for i := range scores {
			ps[i] = pair{scores[i], r[i]}
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })
		for i := 1; i < n; i++ {
			if ps[i].r < ps[i-1].r-1e-12 {
				return false
			}
			if ps[i].s == ps[i-1].s && ps[i].r != ps[i-1].r {
				return false // ties must share ranks
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineMethodRun(t *testing.T) {
	d := smallECG(t, 40, 7)
	m := PipelineMethod{
		MethodName: "iFor(test)",
		Build: func(seed int64) (*Pipeline, error) {
			p := quickPipeline(seed)
			return p, nil
		},
	}
	if m.Name() != "iFor(test)" {
		t.Fatalf("Name = %q", m.Name())
	}
	scores, err := m.Run(d, d, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Len() {
		t.Fatalf("scores = %d want %d", len(scores), d.Len())
	}
}

func TestDepthMethodRun(t *testing.T) {
	d := smallECG(t, 30, 8)
	m := DepthMethod{
		MethodName: "Dir.out(test)",
		Fit: func(seed int64, train [][][]float64) (FunctionalScorer, error) {
			return depth.FitDirOut(train, depth.ProjectionOptions{Directions: 10, Seed: seed})
		},
	}
	scores, err := m.Run(d, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Len() {
		t.Fatalf("scores = %d want %d", len(scores), d.Len())
	}
	for _, s := range scores {
		if math.IsNaN(s) {
			t.Fatal("NaN depth score")
		}
	}
}

func TestCommonGridFallsBackOnMismatch(t *testing.T) {
	mk := func(times []float64) fda.Sample {
		ys := make([]float64, len(times))
		return fda.Sample{Times: times, Values: [][]float64{ys}}
	}
	train := fda.Dataset{Samples: []fda.Sample{mk([]float64{0, 0.5, 1})}}
	testSet := fda.Dataset{Samples: []fda.Sample{mk([]float64{0, 0.3, 1})}}
	g := commonGrid(train, testSet)
	if len(g) != 3 {
		t.Fatalf("fallback grid length = %d want 3", len(g))
	}
	if g[0] != 0 || g[2] != 1 {
		t.Fatalf("fallback grid = %v", g)
	}
	// Identical grids pass through verbatim.
	same := commonGrid(train, train)
	if same[1] != 0.5 {
		t.Fatalf("shared grid = %v", same)
	}
}

func TestTunedOCSVMDetector(t *testing.T) {
	d := smallECG(t, 40, 9)
	p := &Pipeline{
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{},
		Detector:    &TunedOCSVM{Candidates: []float64{0.1, 0.2}, Folds: 3, Seed: 1},
		Standardize: true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	det := p.Detector.(*TunedOCSVM)
	if det.BestNu != 0.1 && det.BestNu != 0.2 {
		t.Fatalf("BestNu = %g not among candidates", det.BestNu)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := NaNGuard(scores); err != nil {
		t.Fatal(err)
	}
}

func TestTunedOCSVMScoreBeforeFit(t *testing.T) {
	det := &TunedOCSVM{}
	if _, err := det.ScoreBatch([][]float64{{1}}); err == nil {
		t.Fatal("score before fit must fail")
	}
	if det.Name() != "OCSVM" {
		t.Fatalf("Name = %q", det.Name())
	}
}

var _ Detector = (*iforest.Forest)(nil) // compile-time interface check
