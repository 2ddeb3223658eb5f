package depth

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// scorer is what every fitted depth baseline offers.
type scorer interface {
	Score(sample [][]float64) (float64, error)
	ScoreBatch(samples [][][]float64) ([]float64, error)
}

// fitters builds each depth baseline from one training set; minN is the
// smallest training set it accepts.
var fitters = []struct {
	name string
	minN int
	fit  func(train [][][]float64) (scorer, error)
}{
	{"band", 2, func(x [][][]float64) (scorer, error) { return FitBandDepth(x) }},
	{"fraiman-muniz", 2, func(x [][][]float64) (scorer, error) { return FitFraimanMuniz(x) }},
	{"funta", 1, func(x [][][]float64) (scorer, error) { return FitFUNTA(x, nil) }},
	{"dirout", 1, func(x [][][]float64) (scorer, error) {
		return FitDirOut(x, ProjectionOptions{Directions: 30, Seed: 1})
	}},
	{"mfhd", 1, func(x [][][]float64) (scorer, error) {
		return FitMFHD(x, ProjectionOptions{Directions: 30, Seed: 1})
	}},
	{"integrated", 1, func(x [][][]float64) (scorer, error) {
		return FitIntegratedDepth(x, Integral, ProjectionOptions{Directions: 30, Seed: 1})
	}},
	{"infimum", 1, func(x [][][]float64) (scorer, error) {
		return FitIntegratedDepth(x, Infimum, ProjectionOptions{Directions: 30, Seed: 1})
	}},
}

// bivariate returns n two-parameter curves on an m-point grid.
func bivariate(rng *rand.Rand, n, m int) [][][]float64 {
	a, b := makeCurves(rng, n, m, 0.1), makeCurves(rng, n, m, 0.1)
	out := make([][][]float64, n)
	for i := range out {
		out[i] = [][]float64{a[i][0], b[i][0]}
	}
	return out
}

// TestFitRejectsMalformedTraining: every Fit… function refuses a
// zero-parameter, zero-point, ragged or too-small training set with
// ErrDepth before it reads the samples. Zero-parameter samples used to
// panic in Fraiman–Muniz and spin forever drawing directions in R⁰ in
// the integrated depth (TestSDOErrors holds SDO to the same).
func TestFitRejectsMalformedTraining(t *testing.T) {
	valid := bivariate(rand.New(rand.NewSource(1)), 4, 6)
	bad := map[string][][][]float64{
		"zero parameters":   {{}, {}},
		"zero points":       {{{}, {}}, {{}, {}}},
		"ragged parameters": {valid[0], valid[1][:1]},
		"ragged points":     {valid[0], {valid[1][0], valid[1][1][:5]}},
		"empty":             nil,
	}
	for _, f := range fitters {
		for name, train := range bad {
			if _, err := f.fit(train); !errors.Is(err, ErrDepth) {
				t.Errorf("%s on %s: err = %v, want ErrDepth", f.name, name, err)
			}
		}
		if _, err := f.fit(valid[:f.minN-1]); !errors.Is(err, ErrDepth) {
			t.Errorf("%s on %d samples: err = %v, want ErrDepth", f.name, f.minN-1, err)
		}
		if _, err := f.fit(valid[:f.minN]); err != nil {
			t.Errorf("%s on %d samples: %v", f.name, f.minN, err)
		}
	}
}

// TestScoreBatchMatchesScore: each baseline's batch score is bitwise a
// sequential loop over its Score, and a malformed sample fails the batch
// with the lowest-index sample's error.
func TestScoreBatchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := bivariate(rng, 30, 25)
	test := bivariate(rng, 40, 25)
	for i := 0; i < len(test); i += 7 {
		test[i] = shiftCurve(test[i], 1.5, 5, 15)
	}
	for _, f := range fitters {
		s, err := f.fit(train)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		batch, err := s.ScoreBatch(test)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for i, x := range test {
			v, err := s.Score(x)
			if err != nil {
				t.Fatalf("%s sample %d: %v", f.name, i, err)
			}
			if math.Float64bits(v) != math.Float64bits(batch[i]) {
				t.Errorf("%s sample %d: batch %v, Score %v", f.name, i, batch[i], v)
			}
		}
		broken := append([][][]float64{}, test...)
		broken[9] = test[9][:1]
		broken[23] = [][]float64{test[23][0], test[23][1][:3]}
		out, err := s.ScoreBatch(broken)
		if !errors.Is(err, ErrDepth) || !strings.Contains(err.Error(), "sample 9:") || out != nil {
			t.Errorf("%s broken batch: scores %v, err %v; want nil and sample 9's ErrDepth", f.name, out, err)
		}
	}
}
