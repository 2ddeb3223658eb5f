package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

// testDataset returns a small bivariate ECG dataset.
func testDataset(t *testing.T, n int, seed int64) fda.Dataset {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: n, Points: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fitPipeline fits a fast iForest pipeline on d.
func fitPipeline(t *testing.T, d fda.Dataset, seed int64, standardize bool) *core.Pipeline {
	t.Helper()
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 30, Seed: seed}),
		Standardize:  standardize,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	return p
}

// saveModel fits a pipeline and writes it under dir, returning the file
// path, the in-memory pipeline and the dataset it was fitted on.
func saveModel(t *testing.T, dir, file string, seed int64) (string, *core.Pipeline, fda.Dataset) {
	t.Helper()
	d := testDataset(t, 30, seed)
	p := fitPipeline(t, d, seed, true)
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, p, d
}
