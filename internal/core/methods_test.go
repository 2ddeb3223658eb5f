package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/depth"
	"repro/internal/detector"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/ocsvm"
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
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: TunedOCSVM{Candidates: []float64{0.1, 0.2}, Folds: 3, Seed: 1},
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := NaNGuard(scores); err != nil {
		t.Fatal(err)
	}
	// The fitted detector is the one-class SVM fitted on the training
	// features at the ν that TuneNu selects from them.
	feats, err := p.features(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.standardize(feats, 0, len(p.grid)-1); err != nil {
		t.Fatal(err)
	}
	kernel := ocsvm.RBF{Gamma: ocsvm.GammaScale(feats)}
	nu, _, err := ocsvm.TuneNu(feats, []float64{0.1, 0.2}, 3, kernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nu != 0.1 && nu != 0.2 {
		t.Fatalf("tuned nu = %g not among candidates", nu)
	}
	want, err := ocsvm.Options{Nu: nu, Kernel: kernel}.Fit(feats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Detector.ScoreBatch(feats)
	if err != nil {
		t.Fatal(err)
	}
	wantScores, err := want.ScoreBatch(feats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("row %d: tuned model scores %v, the nu = %g fit %v", i, got[i], nu, wantScores[i])
		}
	}
}

// TestTunedOCSVMScoreBeforeFit: a TunedOCSVM cannot score before Fit,
// by type. The spec has no score method, and its Fit returns the
// one-class SVM's own model, which saves like any other.
func TestTunedOCSVMScoreBeforeFit(t *testing.T) {
	if _, ok := any(TunedOCSVM{}).(Detector); ok {
		t.Fatal("the spec has a score method")
	}
	det, err := TunedOCSVM{Candidates: []float64{0.2}, Folds: 2}.Fit([][]float64{{0}, {1}, {2}, {3}, {10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := det.(*ocsvm.Model); !ok || det.Name() != "OCSVM" {
		t.Fatalf("Fit returned %T named %q, want an *ocsvm.Model named OCSVM", det, det.Name())
	}
}

// Compile-time interface checks.
var (
	_ Detector      = (*iforest.Forest)(nil)
	_ detector.Spec = TunedOCSVM{}
)
