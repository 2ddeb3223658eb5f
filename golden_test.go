// Golden-equivalence layer: the scores of the three headline methods on
// the seeded Figure-1 dataset are pinned in testdata/golden_scores.json.
// Any change to the smoothing/scoring hot path — the basis cache, the
// worker-pool fan-out, the span-compact evaluation — must reproduce the
// recorded scores to 1e-12 (see DESIGN.md for why the tolerance is not
// exactly zero). Regenerate the fixture after an intentional numeric
// change with:
//
//	go test -run TestGoldenScores -update .
package repro_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/iforest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_scores.json with freshly computed scores")

const goldenPath = "testdata/golden_scores.json"

// goldenTolerance is the permitted relative disagreement with the pinned
// scores: |got − want| ≤ 1e-12 · max(1, |want|).
const goldenTolerance = 1e-12

// goldenDataset is the fixed workload: the paper's Figure-1 data (20
// noisy circles + 1 figure-eight) with a pinned seed.
func goldenDataset() fda.Dataset {
	return dataset.Figure1(dataset.Figure1Options{Seed: 1})
}

// goldenScores computes the fixture content: train on the full dataset
// and score it back, per method, exactly as the paper's in-sample
// illustration does. Every source of randomness is seeded.
func goldenScores(t *testing.T) map[string][]float64 {
	t.Helper()
	d := goldenDataset()
	out := make(map[string][]float64, 3)

	pipe := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}))
	if err := pipe.Fit(d); err != nil {
		t.Fatalf("iFor(Curvmap) fit: %v", err)
	}
	scores, err := pipe.Score(d)
	if err != nil {
		t.Fatalf("iFor(Curvmap) score: %v", err)
	}
	out["iFor(Curvmap)"] = scores

	lo, hi := d.Domain()
	grid := d.Samples[0].Times
	vals, err := core.GridValues(d, grid, lo, hi)
	if err != nil {
		t.Fatalf("grid values: %v", err)
	}
	for _, c := range []struct {
		name string
		s    core.FunctionalScorer
	}{
		{"FUNTA", depth.NewFUNTA(grid)},
		{"Dir.out", depth.NewDirOut(depth.ProjectionOptions{Directions: 50, Seed: 1})},
	} {
		if err := c.s.Fit(vals); err != nil {
			t.Fatalf("%s fit: %v", c.name, err)
		}
		scores, err := c.s.ScoreBatch(vals)
		if err != nil {
			t.Fatalf("%s score: %v", c.name, err)
		}
		out[c.name] = scores
	}
	return out
}

func TestGoldenScores(t *testing.T) {
	got := goldenScores(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("fixture has %d methods, computed %d", len(want), len(got))
	}
	for method, wantScores := range want {
		gotScores, ok := got[method]
		if !ok {
			t.Errorf("method %q in fixture but not computed", method)
			continue
		}
		if len(gotScores) != len(wantScores) {
			t.Errorf("%s: %d scores, fixture has %d", method, len(gotScores), len(wantScores))
			continue
		}
		for i := range wantScores {
			tol := goldenTolerance * math.Max(1, math.Abs(wantScores[i]))
			if diff := math.Abs(gotScores[i] - wantScores[i]); diff > tol {
				t.Errorf("%s: sample %d = %.17g, golden %.17g (|Δ| = %g > %g)",
					method, i, gotScores[i], wantScores[i], diff, tol)
			}
		}
	}
}

// TestGoldenScoresParallelAndCached re-scores the fixture workload with
// every hot-path optimization enabled at once — a 4-worker pool and a
// pre-warmed shared basis cache — and holds the result to the same
// golden fixture. This is the lock on the tentpole: the optimized path
// and the recorded sequential scores may not drift apart.
func TestGoldenScoresParallelAndCached(t *testing.T) {
	want := readGolden(t)
	d := goldenDataset()
	cache := fda.NewBasisCache()
	for pass := 0; pass < 2; pass++ { // pass 1 runs on a warm cache
		pipe := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}))
		pipe.Parallel = 4
		pipe.Smooth.Cache = cache
		if err := pipe.Fit(d); err != nil {
			t.Fatalf("pass %d fit: %v", pass, err)
		}
		scores, err := pipe.Score(d)
		if err != nil {
			t.Fatalf("pass %d score: %v", pass, err)
		}
		wantScores := want["iFor(Curvmap)"]
		if len(wantScores) != len(scores) {
			t.Fatalf("pass %d: %d scores, fixture has %d", pass, len(scores), len(wantScores))
		}
		for i := range wantScores {
			tol := goldenTolerance * math.Max(1, math.Abs(wantScores[i]))
			if diff := math.Abs(scores[i] - wantScores[i]); diff > tol {
				t.Errorf("pass %d: sample %d = %.17g, golden %.17g (|Δ| = %g > %g)",
					pass, i, scores[i], wantScores[i], diff, tol)
			}
		}
	}
	if stats := cache.Stats(); stats.Hits == 0 {
		t.Errorf("second pass never hit the warm cache: %+v", stats)
	}
}

func readGolden(t *testing.T) map[string][]float64 {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	var want map[string][]float64
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return want
}
