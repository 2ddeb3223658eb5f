package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/lof"
	"repro/internal/ocsvm"
)

func TestScoreOneMatchesScore(t *testing.T) {
	d := smallECG(t, 40, 21)
	for name, p := range map[string]*Pipeline{
		"ifor-standardized": quickPipeline(21),
		"ocsvm": {
			Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
			Mapping:      geometry.Stack{geometry.Curvature{Max: 50}, geometry.Speed{}},
			DetectorSpec: ocsvm.Options{Nu: 0.2},
		},
	} {
		if err := p.Fit(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch, err := p.Score(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range d.Samples {
			one, err := p.ScoreOne(s)
			if err != nil {
				t.Fatalf("%s: sample %d: %v", name, i, err)
			}
			if math.Abs(one-batch[i]) > 1e-12 {
				t.Fatalf("%s: ScoreOne(%d) = %g, Score gave %g", name, i, one, batch[i])
			}
		}
	}
}

func TestScoreOneBeforeFit(t *testing.T) {
	p := quickPipeline(1)
	d := smallECG(t, 4, 1)
	if _, err := p.ScoreOne(d.Samples[0]); err == nil {
		t.Fatal("ScoreOne before Fit must fail")
	}
}

// TestPipelineScoreConcurrent hammers one fitted pipeline from many
// goroutines mixing Score, ScoreOne and Explain. Run under -race it
// verifies the documented guarantee that scoring is read-only after Fit,
// for each built-in detector family.
func TestPipelineScoreConcurrent(t *testing.T) {
	d := smallECG(t, 40, 22)
	for name, det := range map[string]detector.Spec{
		"ifor":  quickPipeline(22).DetectorSpec,
		"ocsvm": ocsvm.Options{Nu: 0.2},
		"lof":   lof.Options{},
	} {
		p := &Pipeline{
			Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
			Mapping:      geometry.LogCurvature{},
			DetectorSpec: det,
			Standardize:  true,
		}
		if err := p.Fit(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := p.Score(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got, err := p.Score(d)
					if err != nil {
						errc <- err
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s: concurrent score[%d] = %g, want %g", name, i, got[i], want[i])
							return
						}
					}
					if _, err := p.ScoreOne(d.Samples[g%d.Len()]); err != nil {
						errc <- err
						return
					}
					if _, err := p.Explain(d.Samples[g%d.Len()], 3); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
