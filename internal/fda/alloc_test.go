package fda_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// TestWarmFitAllocations: once the basis cache holds a grid's systems,
// FitSample of a Fig. 3 curve (85 points, two parameters, 4 basis sizes
// × 5 λ) allocates the fit it returns and a fixed few working slices,
// none per candidate: 11 on go1.24/amd64.
func TestWarmFitAllocations(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Domain()
	opt := fda.Options{Lo: lo, Hi: hi, Cache: fda.NewBasisCache()}
	s := d.Samples[0]
	if _, err := fda.FitSample(s, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := fda.FitSample(s, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d points: %.0f allocations per warm FitSample", s.Len(), allocs)
	if allocs > 16 {
		t.Errorf("warm FitSample allocates %.0f times, want at most 16", allocs)
	}
}
