package fda_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// fig3Warm returns n Fig. 3 curves and options whose cache already
// holds their grid's systems.
func fig3Warm(b *testing.B, n int) (fda.Dataset, fda.Options) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := d.Domain()
	opt := fda.Options{Lo: lo, Hi: hi, Cache: fda.NewBasisCache(), Parallel: 1}
	for range 3 {
		if _, err := fda.FitDataset(d, opt); err != nil {
			b.Fatal(err)
		}
	}
	return d, opt
}

// BenchmarkFitSampleWarm is one warm FitSample of a Fig. 3 curve (85
// points, two parameters): the group of one every single-curve request
// and stream refit runs.
func BenchmarkFitSampleWarm(b *testing.B) {
	d, opt := fig3Warm(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fda.FitSample(d.Samples[i%d.Len()], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitDatasetWarm is one warm FitDataset of 256 Fig. 3 curves
// on one worker: a bulk chunk's smoothing.
func BenchmarkFitDatasetWarm(b *testing.B) {
	d, opt := fig3Warm(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fda.FitDataset(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}
