// Integration tests exercising the paper's qualitative claims across
// module boundaries: raw generator → smoother → mapping → detector →
// evaluation, with no package-internal shortcuts.
package repro_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/stats"
)

// TestClaimFig1OutlierTopRanked: the shape-persistent outlier of Fig. 1 —
// never extreme in either coordinate — must be the top-ranked sample under
// the curvature pipeline.
func TestClaimFig1OutlierTopRanked(t *testing.T) {
	d := dataset.Figure1(dataset.Figure1Options{Seed: 5})
	p := &core.Pipeline{
		Mapping:      geometry.Curvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 5}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	if d.Labels[best] != 1 {
		t.Fatalf("top-ranked sample %d is not the planted outlier", best)
	}
}

// TestClaimFUNTABlindCurvmapNot: a pure vertical shift never crosses the
// bundle, so FUNTA scores it zero, while the same outlier is caught by the
// raw-mapping pipeline (its curvature is unchanged, so the amplitude-aware
// control is the right detector here) — the taxonomy trade-off the paper
// builds its mixed-type argument on.
func TestClaimFUNTABlindCurvmapNot(t *testing.T) {
	// Bundle of sinusoids, one shifted far above.
	m := 50
	times := fda.UniformGrid(0, 1, m)
	var d fda.Dataset
	rng := stats.NewRand(1, 0)
	for i := 0; i < 30; i++ {
		v1 := make([]float64, m)
		v2 := make([]float64, m)
		shift := 0.0
		label := 0
		if i == 0 {
			shift = 10
			label = 1
		}
		for j, tt := range times {
			v1[j] = math.Sin(2*math.Pi*tt) + shift + 0.05*rng.NormFloat64()
			v2[j] = math.Cos(2*math.Pi*tt) + shift + 0.05*rng.NormFloat64()
		}
		d.Samples = append(d.Samples, fda.Sample{Times: times, Values: [][]float64{v1, v2}})
		d.Labels = append(d.Labels, label)
	}
	// FUNTA: the shifted curve has no crossings → outlyingness 0.
	vals := make([][][]float64, d.Len())
	for i, s := range d.Samples {
		vals[i] = s.Values
	}
	f, err := depth.FitFUNTA(vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := f.ScoreBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	if fs[0] != 0 {
		t.Fatalf("FUNTA score of the non-crossing outlier = %g want 0", fs[0])
	}
	// Dir.out (pointwise) flags it immediately.
	do, err := depth.FitDirOut(vals, depth.ProjectionOptions{Directions: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := do.ScoreBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, s := range ds {
		if s > ds[best] {
			best = i
		}
	}
	if best != 0 {
		t.Fatalf("Dir.out top-ranked %d, want the shifted curve 0", best)
	}
}

// TestClaimThresholdPipeline: scores from a fitted pipeline feed the
// Sec. 4.2 threshold learners and produce a usable decision rule.
func TestClaimThresholdPipeline(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 60, Points: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 100, Seed: 9}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, learn := range []func([]float64, []int) (eval.ThresholdResult, error){
		eval.BestThresholdYouden, eval.BestThresholdF1, eval.LogisticThreshold,
	} {
		res, err := learn(scores, d.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if res.Confusion.F1() < 0.5 {
			t.Fatalf("learned threshold F1 = %g too weak", res.Confusion.F1())
		}
	}
}

// TestClaimIrregularSampling: the representation handles sparse,
// non-uniform measurement points (Sec. 2, "no assumption is made on the
// distribution of the measurement points") end to end.
func TestClaimIrregularSampling(t *testing.T) {
	rng := stats.NewRand(4, 0)
	var d fda.Dataset
	for i := 0; i < 24; i++ {
		// Each sample gets its own jittered, non-uniform grid.
		m := 35 + rng.Intn(15)
		times := make([]float64, m)
		tt := 0.0
		for j := 0; j < m; j++ {
			tt += 0.5 * (1 + rng.Float64()) / float64(m)
			times[j] = tt
		}
		// Rescale into [0, 1].
		for j := range times {
			times[j] /= times[m-1]
		}
		label := 0
		freq := 1.0
		if i == 0 {
			label = 1
			freq = 3 // shape outlier
		}
		v1 := make([]float64, m)
		v2 := make([]float64, m)
		for j, tv := range times {
			v1[j] = math.Sin(2*math.Pi*freq*tv) + 0.03*rng.NormFloat64()
			v2[j] = math.Cos(2*math.Pi*freq*tv) + 0.03*rng.NormFloat64()
		}
		d.Samples = append(d.Samples, fda.Sample{Times: times, Values: [][]float64{v1, v2}})
		d.Labels = append(d.Labels, label)
	}
	p := &core.Pipeline{
		Mapping:      geometry.Curvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 4}),
		Standardize:  true,
		GridSize:     50,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if d.Labels[idx[0]] != 1 {
		t.Fatalf("irregularly sampled shape outlier not top-ranked (got sample %d)", idx[0])
	}
}

// TestClaimFig3Ordering: one quick repetition of the headline experiment
// preserves the figure's method ordering: both Curvmap methods above
// FUNTA, which sits at the bottom.
func TestClaimFig3Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering check skipped in -short mode")
	}
	d, err := experiments.Fig3Dataset(140, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3, 0)
	sp, err := eval.MakeSplit(d.Labels, 70, 0.10, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, test := sp.Apply(d)
	auc := make(map[string]float64)
	for _, m := range experiments.Fig3Methods() {
		scores, err := m.Run(train, test, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := eval.AUC(scores, test.Labels)
		if err != nil {
			t.Fatal(err)
		}
		auc[m.Name()] = a
	}
	if auc["iFor(Curvmap)"] <= auc["FUNTA"] || auc["OCSVM(Curvmap)"] <= auc["FUNTA"] {
		t.Fatalf("Curvmap methods must beat FUNTA: %v", auc)
	}
}
