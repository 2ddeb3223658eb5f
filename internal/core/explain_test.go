package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/stats"
)

// explainDataset builds a bundle of circles plus one sample with a sharp
// local bend around t = 0.5, so the explanation should localise there.
func explainDataset() fda.Dataset {
	rng := stats.NewRand(8, 0)
	m := 60
	times := fda.UniformGrid(0, 1, m)
	var d fda.Dataset
	for i := 0; i < 25; i++ {
		x1 := make([]float64, m)
		x2 := make([]float64, m)
		label := 0
		bend := 0.0
		if i == 0 {
			label = 1
			bend = 0.8
		}
		for j, t := range times {
			x1[j] = math.Cos(2*math.Pi*t) + 0.02*rng.NormFloat64()
			x2[j] = math.Sin(2*math.Pi*t) + bend*math.Exp(-0.5*((t-0.5)/0.08)*((t-0.5)/0.08)) + 0.02*rng.NormFloat64()
		}
		d.Samples = append(d.Samples, fda.Sample{Times: times, Values: [][]float64{x1, x2}})
		d.Labels = append(d.Labels, label)
	}
	return d
}

func TestExplainLocalisesDeviation(t *testing.T) {
	d := explainDataset()
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{16}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 8}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	exps, err := p.Explain(d.Samples[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 5 {
		t.Fatalf("explanations = %d want 5", len(exps))
	}
	// Ordered by |Z| descending.
	for i := 1; i < len(exps); i++ {
		if math.Abs(exps[i].Z) > math.Abs(exps[i-1].Z)+1e-12 {
			t.Fatal("explanations not sorted by |Z|")
		}
	}
	// The top deviations must cluster near the planted bend at t = 0.5:
	// at least one of the top three lands inside the bump's support.
	near := false
	for _, e := range exps[:3] {
		if math.Abs(e.T-0.5) < 0.2 {
			near = true
		}
	}
	if !near {
		t.Fatalf("no top-3 deviation near the planted bend: %+v", exps[:3])
	}
	if math.Abs(exps[0].Z) < 3 {
		t.Fatalf("top |Z| = %g, want a strong deviation", exps[0].Z)
	}
}

func TestExplainInlierIsMild(t *testing.T) {
	d := explainDataset()
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{16}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 8}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := p.Explain(d.Samples[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := p.Explain(d.Samples[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(in[0].Z) >= math.Abs(out[0].Z) {
		t.Fatalf("inlier top |Z| %g should be below outlier top |Z| %g", in[0].Z, out[0].Z)
	}
}

func TestExplainValidation(t *testing.T) {
	d := explainDataset()
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{16}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 8}),
		Standardize:  false,
	}
	if _, err := p.Explain(d.Samples[0], 3); !errors.Is(err, ErrPipeline) {
		t.Fatal("explain before fit must fail")
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Explain(d.Samples[0], 3); !errors.Is(err, ErrPipeline) {
		t.Fatal("explain without standardization must fail")
	}
}
