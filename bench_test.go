// Benchmarks regenerating the paper's figures and exercising every
// substrate. One benchmark per evaluation artifact (Fig. 1–3, plus the
// repository's ablations), each measuring the cost of a single
// experimental unit — e.g. BenchmarkFig3_IForCurvmap times one
// train/score repetition of the headline experiment at c = 0.10.
// `go run ./cmd/mfodbench -exp all` prints the corresponding result
// tables; EXPERIMENTS.md records the measured numbers.
package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/lof"
	"repro/internal/ocsvm"
	"repro/internal/serve"
	"repro/internal/stats"
)

// --- Fig. 1: bivariate shape-outlier illustration -----------------------

func BenchmarkFig1_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := dataset.Figure1(dataset.Figure1Options{Seed: int64(i)})
		if d.Len() != 21 {
			b.Fatal("wrong size")
		}
	}
}

func BenchmarkFig1_SmoothAndCurvature(b *testing.B) {
	d := dataset.Figure1(dataset.Figure1Options{Seed: 1})
	grid := fda.UniformGrid(0, 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fits, err := fda.FitDataset(d, fda.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := geometry.MapDataset(fits, geometry.Curvature{}, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2: curvature along an analytic curve --------------------------

func BenchmarkFig2_Curvature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(60, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: AUC vs contamination on ECG --------------------------------

// fig3Rep runs one repetition (one contaminated split, one method) of the
// headline experiment at c = 0.10 and reports the test AUC to keep the
// optimizer honest.
func fig3Rep(b *testing.B, m eval.Method) {
	b.Helper()
	d, err := experiments.Fig3Dataset(200, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1, 0)
	sp, err := eval.MakeSplit(d.Labels, 100, 0.10, rng)
	if err != nil {
		b.Fatal(err)
	}
	train, test := sp.Apply(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := m.Run(train, test, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.AUC(scores, test.Labels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_IForCurvmap(b *testing.B)  { fig3Rep(b, experiments.Fig3Methods()[2]) }
func BenchmarkFig3_OCSVMCurvmap(b *testing.B) { fig3Rep(b, experiments.Fig3Methods()[3]) }
func BenchmarkFig3_DirOut(b *testing.B)       { fig3Rep(b, experiments.Fig3Methods()[0]) }
func BenchmarkFig3_FUNTA(b *testing.B)        { fig3Rep(b, experiments.Fig3Methods()[1]) }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationMappings times one pipeline fit+score per mapping
// function on a persistent-shape taxonomy dataset (tab-ablation-map).
func BenchmarkAblationMappings(b *testing.B) {
	d, err := dataset.Taxonomy(dataset.TaxonomyOptions{N: 80, Class: dataset.PersistentShape, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mapping := range []geometry.Mapping{
		geometry.Raw{}, geometry.Speed{}, geometry.Curvature{}, geometry.LogCurvature{},
	} {
		b.Run(mapping.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{
					Mapping:     mapping,
					Detector:    iforest.New(iforest.Options{Seed: int64(i)}),
					Standardize: true,
				}
				if err := p.Fit(d); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Score(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBasis times the smoother across fixed basis sizes
// (tab-ablation-basis): the dominant cost of the whole pipeline.
func BenchmarkAblationBasis(b *testing.B) {
	d, err := experiments.Fig3Dataset(50, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, dim := range []int{8, 16, 24, 32} {
		b.Run(benchName("L", dim), func(b *testing.B) {
			opt := fda.Options{Dims: []int{dim}, Lambdas: []float64{1e-6}}
			for i := 0; i < b.N; i++ {
				if _, err := fda.FitDataset(d, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDetectors times each detector on fixed curvature
// features (tab-ablation-detector).
func BenchmarkAblationDetectors(b *testing.B) {
	d, err := experiments.Fig3Dataset(120, 1)
	if err != nil {
		b.Fatal(err)
	}
	fits, err := fda.FitDataset(d, fda.Options{})
	if err != nil {
		b.Fatal(err)
	}
	grid := fda.UniformGrid(0, 1, 85)
	feats, err := geometry.MapDataset(fits, geometry.LogCurvature{}, grid)
	if err != nil {
		b.Fatal(err)
	}
	detectors := map[string]func(i int) core.Detector{
		"iFor":  func(i int) core.Detector { return iforest.New(iforest.Options{Seed: int64(i)}) },
		"OCSVM": func(i int) core.Detector { return ocsvm.New(ocsvm.Options{Nu: 0.1}) },
		"LOF":   func(i int) core.Detector { return lof.New(lof.Options{}) },
		"kNN":   func(i int) core.Detector { return lof.NewKNN(lof.Options{}) },
	}
	for name, build := range detectors {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det := build(i)
				if err := det.Fit(feats); err != nil {
					b.Fatal(err)
				}
				if _, err := det.ScoreBatch(feats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsemble times the Sec. 5 class-specialised ensemble
// (tab-ensemble): three member pipelines fitted and scored.
func BenchmarkEnsemble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEnsemble(experiments.AblationOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component microbenchmarks ------------------------------------------

func BenchmarkSmoothOneCurve(b *testing.B) {
	d, err := dataset.ECG(dataset.ECGOptions{N: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := d.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fda.FitSample(fda.Sample{Times: s.Times, Values: s.Values[:1]}, fda.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCurvatureMap(b *testing.B) {
	d, err := experiments.Fig3Dataset(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	fit, err := fda.FitSample(d.Samples[0], fda.Options{})
	if err != nil {
		b.Fatal(err)
	}
	grid := fda.UniformGrid(0, 1, 85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (geometry.Curvature{}).Map(fit, grid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIForestFit(b *testing.B) {
	rng := stats.NewRand(1, 0)
	x := make([][]float64, 200)
	for i := range x {
		row := make([]float64, 85)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := iforest.New(iforest.Options{Seed: int64(i)})
		if err := f.Fit(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOCSVMFit(b *testing.B) {
	rng := stats.NewRand(2, 0)
	x := make([][]float64, 100)
	for i := range x {
		row := make([]float64, 85)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ocsvm.New(ocsvm.Options{Nu: 0.1})
		if err := m.Fit(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirOutScore(b *testing.B) {
	d, err := experiments.Fig3Dataset(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][][]float64, d.Len())
	for i, s := range d.Samples {
		vals[i] = s.Values
	}
	do, err := depth.FitDirOut(vals, depth.ProjectionOptions{Directions: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := do.Score(vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFUNTAScore(b *testing.B) {
	d, err := experiments.Fig3Dataset(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][][]float64, d.Len())
	for i, s := range d.Samples {
		vals[i] = s.Values
	}
	f, err := depth.FitFUNTA(vals, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Score(vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAUC(b *testing.B) {
	rng := stats.NewRand(3, 0)
	scores := make([]float64, 1000)
	labels := make([]int, 1000)
	labels[0], labels[1] = 0, 1
	for i := range scores {
		scores[i] = rng.Float64()
		if i > 1 {
			labels[i] = rng.Intn(2)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AUC(scores, labels); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// --- Serving: concurrent scoring throughput ----------------------------

// BenchmarkServeScoreParallel measures end-to-end scoring throughput of
// the mfodserve stack — HTTP handler, bounded queue, worker pool,
// fitted pipeline — under parallel single-curve requests,
// the serving subsystem's target workload.
func BenchmarkServeScoreParallel(b *testing.B) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 60, Points: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{},
		Detector:    iforest.New(iforest.Options{Trees: 100, Seed: 1}),
		Standardize: true,
	}
	if err := p.Fit(d); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := dir + "/model.json"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.SaveJSON(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		b.Fatal(err)
	}
	pool := serve.NewPool(serve.PoolOptions{QueueCap: 4096})
	defer pool.Close()
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool, Timeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/score?model=ecg"

	// Pre-marshal one request body per sample.
	bodies := make([][]byte, d.Len())
	for i, s := range d.Samples {
		blob, err := json.Marshal(map[string]any{
			"samples": []map[string]any{{"times": s.Times, "values": s.Values}},
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = blob
	}
	var n atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			i := int(n.Add(1)) % len(bodies)
			resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}
