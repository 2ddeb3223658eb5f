package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/lof"
)

// smallECG returns a quick bivariate labeled dataset for pipeline tests.
func smallECG(t *testing.T, n int, seed int64) fda.Dataset {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: n, Points: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func quickPipeline(seed int64) *Pipeline {
	return &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 50, Seed: seed}),
		Standardize:  true,
	}
}

func TestPipelineValidate(t *testing.T) {
	p := &Pipeline{}
	if err := p.Validate(); !errors.Is(err, ErrPipeline) {
		t.Fatal("missing mapping must fail")
	}
	p.Mapping = geometry.Curvature{}
	if err := p.Validate(); !errors.Is(err, ErrPipeline) {
		t.Fatal("missing detector must fail")
	}
	p.DetectorSpec = iforest.New(iforest.Options{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineScoreBeforeFit(t *testing.T) {
	p := quickPipeline(1)
	if _, err := p.Score(smallECG(t, 8, 1)); !errors.Is(err, ErrPipeline) {
		t.Fatal("score before fit must fail")
	}
}

func TestPipelineEndToEndSeparatesOutliers(t *testing.T) {
	d := smallECG(t, 60, 2)
	p := quickPipeline(2)
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
	auc, err := eval.AUC(scores, d.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.7 {
		t.Fatalf("pipeline AUC = %g, expected decent separation", auc)
	}
}

func TestPipelineMappingDimensionGuard(t *testing.T) {
	// Univariate data cannot feed a curvature mapping.
	d, err := dataset.ECG(dataset.ECGOptions{N: 10, Points: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := quickPipeline(3)
	if err := p.Fit(d); !errors.Is(err, ErrPipeline) {
		t.Fatalf("err = %v want ErrPipeline (p < MinDim)", err)
	}
}

func TestPipelineGrid(t *testing.T) {
	d := smallECG(t, 12, 4)
	p := quickPipeline(4)
	p.GridSize = 25
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	g := p.Grid()
	if len(g) != 25 {
		t.Fatalf("grid length = %d want 25", len(g))
	}
	if g[0] != 0 || math.Abs(g[len(g)-1]-1) > 1e-12 {
		t.Fatalf("grid endpoints = %g, %g", g[0], g[len(g)-1])
	}
	// Default grid size: the training sample length.
	p2 := quickPipeline(4)
	if err := p2.Fit(d); err != nil {
		t.Fatal(err)
	}
	if len(p2.Grid()) != 40 {
		t.Fatalf("default grid = %d want 40", len(p2.Grid()))
	}
}

func TestPipelineStandardizeUsesTrainStats(t *testing.T) {
	d := smallECG(t, 40, 5)
	p := quickPipeline(5)
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p.featMean == nil || p.featScale == nil {
		t.Fatal("standardization stats missing after fit")
	}
	for _, s := range p.featScale {
		if s <= 0 {
			t.Fatalf("non-positive feature scale %g", s)
		}
	}
	// Without standardization no stats are kept.
	p2 := quickPipeline(5)
	p2.Standardize = false
	if err := p2.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p2.featMean != nil {
		t.Fatal("unexpected standardization stats")
	}
}

func TestPipelineWithLOFDetector(t *testing.T) {
	d := smallECG(t, 50, 6)
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: lof.Options{K: 10},
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	scores, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Len() {
		t.Fatalf("scores = %d want %d", len(scores), d.Len())
	}
}

func TestNaNGuard(t *testing.T) {
	if err := NaNGuard([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := NaNGuard([]float64{1, math.NaN()}); !errors.Is(err, ErrPipeline) {
		t.Fatal("NaN must fail")
	}
	if err := NaNGuard([]float64{math.Inf(1)}); !errors.Is(err, ErrPipeline) {
		t.Fatal("Inf must fail")
	}
}

// TestNonFiniteFeaturesAreTypedErrors: Fig. 3 curve 3 scaled by 1e100
// passes every input check, but its curvature is NaN on the whole grid.
// Scoring it, whole or partial, fails with geometry.ErrMapping instead
// of returning the detector's score of a NaN feature row; so does
// fitting on a training set that holds it, naming the sample.
func TestNonFiniteFeaturesAreTypedErrors(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	s := fda.Sample{Times: d.Samples[3].Times}
	for _, row := range d.Samples[3].Values {
		scaled := make([]float64, len(row))
		for j, v := range row {
			scaled[j] = v * 1e100
		}
		s.Values = append(s.Values, scaled)
	}
	if score, err := p.ScoreOne(s); !errors.Is(err, geometry.ErrMapping) {
		t.Errorf("ScoreOne = %v, %v; want a geometry.ErrMapping error", score, err)
	}
	fit, err := fda.FitSample(s, p.smoothOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Domain()
	if score, _, _, err := p.ScorePartialFit(fit, lo, hi); !errors.Is(err, geometry.ErrMapping) {
		t.Errorf("ScorePartialFit = %v, %v; want a geometry.ErrMapping error", score, err)
	}
	train := fda.Dataset{Samples: append([]fda.Sample(nil), d.Samples[:20]...)}
	train.Samples[3] = s
	q := &Pipeline{
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: 1}),
		Standardize:  true,
	}
	if err := q.Fit(train); !errors.Is(err, geometry.ErrMapping) || !strings.Contains(err.Error(), "sample 3") {
		t.Errorf("Fit = %v, want a geometry.ErrMapping error naming sample 3", err)
	}

	// Finite features whose training mean overflows: standardizing
	// them is what turns them non-finite.
	huge := smallECG(t, 20, 2)
	for _, s := range huge.Samples {
		for _, row := range s.Values {
			for j := range row {
				row[j] = 1e307 * (1 + row[j]*row[j])
			}
		}
	}
	raw := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.Raw{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: 1}),
		Standardize:  true,
	}
	if err := raw.Fit(huge); !errors.Is(err, geometry.ErrMapping) {
		t.Errorf("Fit on features whose mean overflows = %v, want a geometry.ErrMapping error", err)
	}
}
