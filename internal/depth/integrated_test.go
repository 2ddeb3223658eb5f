package depth

import (
	"errors"
	"math/rand"
	"testing"
)

func TestIntegratedDepthScoresMagnitudeOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := makeCurves(rng, 50, 40, 0.05)
	d, err := FitIntegratedDepth(train, Integral, ProjectionOptions{Directions: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	normal := makeCurves(rng, 1, 40, 0.05)[0]
	outlier := shiftCurve(normal, 4, 0, 40)
	sn, err := d.Score(normal)
	if err != nil {
		t.Fatal(err)
	}
	so, err := d.Score(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if so <= sn {
		t.Fatalf("persistent outlier %g not above inlier %g", so, sn)
	}
}

func TestInfimumCatchesIsolatedOutlierIntegralMasks(t *testing.T) {
	// The paper's issue (2): averaging pointwise depths masks isolated
	// outliers; the infimum aggregation repairs that. An isolated spike on
	// 2 of 60 points must move the infimum score far more than the
	// integral score.
	rng := rand.New(rand.NewSource(3))
	train := makeCurves(rng, 60, 60, 0.05)
	integral, err := FitIntegratedDepth(train, Integral, ProjectionOptions{Directions: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	infimum, err := FitIntegratedDepth(train, Infimum, ProjectionOptions{Directions: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := makeCurves(rng, 1, 60, 0.05)[0]
	spiked := shiftCurve(base, 8, 30, 32)

	gain := func(d *IntegratedDepth) float64 {
		sb, err := d.Score(base)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := d.Score(spiked)
		if err != nil {
			t.Fatal(err)
		}
		return ss - sb
	}
	gInt := gain(integral)
	gInf := gain(infimum)
	if gInf <= gInt {
		t.Fatalf("infimum gain %g should exceed integral gain %g on an isolated spike", gInf, gInt)
	}
	if gInf < 0.2 {
		t.Fatalf("infimum barely reacts to the spike: gain %g", gInf)
	}
}

func TestIntegratedDepthScoresInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := makeCurves(rng, 30, 30, 0.05)
	for _, agg := range []Aggregation{Integral, Infimum} {
		d, err := FitIntegratedDepth(train, agg, ProjectionOptions{Directions: 10, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		scores, err := d.ScoreBatch(train)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scores {
			if s < 0 || s > 1 {
				t.Fatalf("%s score[%d] = %g outside [0,1]", agg, i, s)
			}
		}
	}
}

func TestIntegratedDepthValidation(t *testing.T) {
	if _, err := FitIntegratedDepth(nil, Integral, ProjectionOptions{}); !errors.Is(err, ErrDepth) {
		t.Fatal("empty fit must fail")
	}
	rng := rand.New(rand.NewSource(7))
	train := makeCurves(rng, 10, 20, 0.05)
	d, err := FitIntegratedDepth(train, Integral, ProjectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score([][]float64{{1, 2}}); !errors.Is(err, ErrDepth) {
		t.Fatal("grid mismatch must fail")
	}
}

func TestAggregationString(t *testing.T) {
	if Integral.String() != "integral" || Infimum.String() != "infimum" {
		t.Fatal("aggregation names wrong")
	}
	if Aggregation(9).String() == "" {
		t.Fatal("unknown aggregation must still stringify")
	}
}
