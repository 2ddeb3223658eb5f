package ocsvm

import (
	"errors"
	"math/rand"
	"testing"
)

func TestTuneNuReturnsCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := cloud(rng, 80, 2, 1)
	cands := []float64{0.05, 0.1, 0.2}
	best, results, err := TuneNu(x, cands, 4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if best == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("best nu %g not among candidates", best)
	}
	if len(results) != len(cands) {
		t.Fatalf("results = %d want %d", len(results), len(cands))
	}
	for _, r := range results {
		if r.RejectRate < 0 || r.RejectRate > 1 {
			t.Fatalf("reject rate %g outside [0,1]", r.RejectRate)
		}
		if r.Objective < 0 {
			t.Fatalf("objective %g negative", r.Objective)
		}
	}
}

func TestTuneNuPicksObjectiveMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := cloud(rng, 60, 2, 1)
	best, results, err := TuneNu(x, nil, 5, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Nu == best {
			for _, other := range results {
				if other.Objective < r.Objective-1e-12 {
					t.Fatalf("best nu %g has objective %g but %g has %g",
						best, r.Objective, other.Nu, other.Objective)
				}
			}
		}
	}
}

func TestTuneNuDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := cloud(rng, 50, 2, 1)
	b1, _, err := TuneNu(x, nil, 5, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := TuneNu(x, nil, 5, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("tuning must be deterministic for a fixed seed")
	}
}

func TestTuneNuErrors(t *testing.T) {
	if _, _, err := TuneNu(nil, nil, 5, nil, 1); !errors.Is(err, ErrOptions) {
		t.Fatal("empty training set must fail")
	}
	rng := rand.New(rand.NewSource(4))
	x := cloud(rng, 20, 2, 1)
	if _, _, err := TuneNu(x, []float64{2}, 5, nil, 1); !errors.Is(err, ErrOptions) {
		t.Fatal("nu > 1 candidate must fail")
	}
}

func TestTuneGridJoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := cloud(rng, 60, 2, 1)
	var grid []Params
	for _, f := range []float64{0.5, 2} {
		for _, nu := range []float64{0.1, 0.2} {
			grid = append(grid, Params{Nu: nu, Kernel: RBF{Gamma: GammaScale(x) * f}})
		}
	}
	if len(grid) != 4 {
		t.Fatalf("grid size = %d want 4", len(grid))
	}
	best, results, err := TuneGrid(x, grid, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d want 4", len(results))
	}
	if best.Kernel == nil || best.Nu == 0 {
		t.Fatalf("best = %+v incomplete", best)
	}
	// The winner must fit cleanly.
	fit(t, Options{Nu: best.Nu, Kernel: best.Kernel}, x)
}

func TestTuneGridEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := cloud(rng, 20, 2, 1)
	if _, _, err := TuneGrid(x, nil, 3, 1); !errors.Is(err, ErrOptions) {
		t.Fatal("empty grid must fail")
	}
}
