package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanKnown(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	// Var of {2,4,4,4,5,5,7,9} is 32/7 (unbiased).
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %g want %g", got, 32.0/7)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of one value should be NaN")
	}
}

func TestPopVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("PopVariance = %g want 4", got)
	}
}

func TestStdDevConsistentWithVariance(t *testing.T) {
	xs := []float64{1, 5, 2, 8}
	if got := StdDev(xs); !almostEqual(got*got, Variance(xs), 1e-12) {
		t.Fatal("StdDev² != Variance")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %g want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %g want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median must not reorder its input")
	}
}

func TestMADKnown(t *testing.T) {
	// Median 3, abs devs {2,1,0,1,2} → MAD raw 1, scaled 1.4826….
	xs := []float64{1, 2, 3, 4, 5}
	if got := MAD(xs); !almostEqual(got, MADConsistency, 1e-12) {
		t.Fatalf("MAD = %g want %g", got, MADConsistency)
	}
}

func TestMADRobustToOutlier(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	spiked := []float64{1, 2, 3, 4, 1e6}
	if MAD(spiked) > 3*MAD(base) {
		t.Fatal("MAD exploded under a single outlier")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %g,%g want -1,7", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("MinMax(nil) should be NaN,NaN")
	}
}

func TestSplitSeedDistinctStreams(t *testing.T) {
	seen := map[int64]bool{}
	for s := 0; s < 1000; s++ {
		v := SplitSeed(42, s)
		if seen[v] {
			t.Fatalf("duplicate sub-seed for stream %d", s)
		}
		seen[v] = true
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(7, 3).Int63()
	b := NewRand(7, 3).Int63()
	if a != b {
		t.Fatal("NewRand must be deterministic for fixed (master, stream)")
	}
	if NewRand(7, 3).Int63() == NewRand(7, 4).Int63() {
		t.Fatal("different streams should differ")
	}
}
