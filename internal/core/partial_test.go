package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

func fitPartialPipeline(t *testing.T, m geometry.Mapping, standardize bool) (*Pipeline, fda.Dataset) {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 25, Points: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      m,
		DetectorSpec: iforest.New(iforest.Options{Trees: 40, Seed: 5}),
		Standardize:  standardize,
		Parallel:     1,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	return p, d
}

// TestScorePartialFitFullCoverage: once the observed sub-domain covers
// the whole grid, the partial path must be arithmetically identical to
// ScoreOne — same mapping, same standardization, no masked features —
// also for raw and stacked mappings, which emit one block of features
// per pass over the grid.
func TestScorePartialFitFullCoverage(t *testing.T) {
	for _, m := range []geometry.Mapping{
		geometry.LogCurvature{},
		geometry.Raw{},
		geometry.Stack{geometry.Curvature{}, geometry.Speed{}},
	} {
		t.Run(m.Name(), func(t *testing.T) {
			p, d := fitPartialPipeline(t, m, true)
			for i := 0; i < 5; i++ {
				s := d.Samples[i]
				want, err := p.ScoreOne(s)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := p.NewIncremental(s.Dim())
				if err != nil {
					t.Fatal(err)
				}
				vals := make([]float64, s.Dim())
				for j := range s.Times {
					for k := range s.Values {
						vals[k] = s.Values[k][j]
					}
					if err := inc.Append(s.Times[j], vals); err != nil {
						t.Fatal(err)
					}
				}
				fit, err := inc.Fit()
				if err != nil {
					t.Fatal(err)
				}
				lo, hi, ok := inc.Span()
				if !ok {
					t.Fatal("empty span on a full stream")
				}
				got, from, to, err := p.ScorePartialFit(fit, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if from != 0 || to != len(p.Grid())-1 {
					t.Fatalf("full coverage masked the grid: [%d, %d] of %d", from, to, len(p.Grid()))
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("sample %d: partial %v != batch %v at full coverage", i, got, want)
				}
			}
		})
	}
}

// TestScorePartialFitPrefix: a half-observed curve must score on a
// strictly interior grid window, and the window must widen as more of
// the curve lands.
func TestScorePartialFitPrefix(t *testing.T) {
	p, d := fitPartialPipeline(t, geometry.LogCurvature{}, true)
	s := d.Samples[0]
	inc, err := p.NewIncremental(s.Dim())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, s.Dim())
	prevTo := -1
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		upto := int(frac * float64(len(s.Times)))
		if upto > len(s.Times) {
			upto = len(s.Times)
		}
		for j := inc.Len(); j < upto; j++ {
			for k := range s.Values {
				vals[k] = s.Values[k][j]
			}
			if err := inc.Append(s.Times[j], vals); err != nil {
				t.Fatal(err)
			}
		}
		fit, err := inc.Fit()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := inc.Span()
		_, from, to, err := p.ScorePartialFit(fit, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if from != 0 {
			t.Fatalf("prefix stream should cover the grid from the left, got from=%d", from)
		}
		if to <= prevTo {
			t.Fatalf("observed window did not widen: to=%d after %d", to, prevTo)
		}
		prevTo = to
	}
	if prevTo != len(p.Grid())-1 {
		t.Fatalf("completed stream should reach the grid end, got to=%d", prevTo)
	}
}

// TestScorePartialFitRequiresStandardize: without training feature
// statistics there is no mean-neutral masking value, so the partial
// path must refuse rather than silently feed raw zeros to the detector.
func TestScorePartialFitRequiresStandardize(t *testing.T) {
	p, d := fitPartialPipeline(t, geometry.LogCurvature{}, false)
	fit, err := fda.FitSample(d.Samples[0], fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}, Lo: d.Samples[0].Times[0], Hi: d.Samples[0].Times[len(d.Samples[0].Times)-1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.ScorePartialFit(fit, 0, 1); !errors.Is(err, ErrPipeline) {
		t.Fatalf("want ErrPipeline without Standardize, got %v", err)
	}
}

// TestNewIncrementalValidation: unfitted pipelines and mappings whose
// MinDim exceeds the stream arity must be rejected up front.
func TestNewIncrementalValidation(t *testing.T) {
	var unfitted Pipeline
	if _, err := unfitted.NewIncremental(2); !errors.Is(err, ErrPipeline) {
		t.Fatalf("unfitted: %v", err)
	}
	p, _ := fitPartialPipeline(t, geometry.LogCurvature{}, true)
	if _, err := p.NewIncremental(1); !errors.Is(err, ErrPipeline) {
		t.Fatalf("dim below MinDim: %v", err)
	}
	if _, err := p.NewIncremental(2); err != nil {
		t.Fatalf("valid dim: %v", err)
	}
}
