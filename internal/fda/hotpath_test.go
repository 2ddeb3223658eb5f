package fda

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// hotpathDataset builds a deterministic n-sample bivariate dataset on a
// shared grid — the shape FitDataset's worker pool and the basis cache
// are exercised with.
func hotpathDataset(n, m int) Dataset {
	ts := UniformGrid(0, 1, m)
	d := Dataset{Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		v1 := make([]float64, m)
		v2 := make([]float64, m)
		for j, tt := range ts {
			phase := 0.1 * float64(i)
			v1[j] = math.Sin(2*math.Pi*tt + phase)
			v2[j] = math.Cos(2*math.Pi*tt+phase) + 0.2*tt*float64(i%5)
		}
		d.Samples[i] = Sample{Times: ts, Values: [][]float64{v1, v2}}
	}
	return d
}

// bitwiseEqualFits fails the test unless the two fit sets carry exactly
// the same coefficient bits and selection metadata.
func bitwiseEqualFits(t *testing.T, label string, a, b []*Fit) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d fits", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Params) != len(b[i].Params) {
			t.Fatalf("%s: sample %d has %d vs %d params", label, i, len(a[i].Params), len(b[i].Params))
		}
		for k := range a[i].Params {
			fa, fb := a[i].Params[k], b[i].Params[k]
			if fa.Lambda != fb.Lambda || fa.Basis.Dim() != fb.Basis.Dim() {
				t.Fatalf("%s: sample %d param %d selected (dim=%d, λ=%g) vs (dim=%d, λ=%g)",
					label, i, k, fa.Basis.Dim(), fa.Lambda, fb.Basis.Dim(), fb.Lambda)
			}
			if len(fa.Coef) != len(fb.Coef) {
				t.Fatalf("%s: sample %d param %d coef length %d vs %d", label, i, k, len(fa.Coef), len(fb.Coef))
			}
			for c := range fa.Coef {
				if math.Float64bits(fa.Coef[c]) != math.Float64bits(fb.Coef[c]) {
					t.Fatalf("%s: sample %d param %d coef %d: %.17g vs %.17g (not bitwise equal)",
						label, i, k, c, fa.Coef[c], fb.Coef[c])
				}
			}
			if math.Float64bits(fa.LOOCV) != math.Float64bits(fb.LOOCV) ||
				math.Float64bits(fa.GCV) != math.Float64bits(fb.GCV) ||
				math.Float64bits(fa.DF) != math.Float64bits(fb.DF) {
				t.Fatalf("%s: sample %d param %d criteria differ: (%v %v %v) vs (%v %v %v)",
					label, i, k, fa.LOOCV, fa.GCV, fa.DF, fb.LOOCV, fb.GCV, fb.DF)
			}
		}
	}
}

// TestFitDatasetParallelMatchesSequential is the worker-pool half of the
// tentpole's property suite: fitting with one worker and with many must
// produce bitwise-identical coefficients, because results are written
// back by sample index and each fit is a pure function of its sample.
func TestFitDatasetParallelMatchesSequential(t *testing.T) {
	d := hotpathDataset(17, 45)
	seq, err := FitDataset(d, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		par, err := FitDataset(d, Options{Parallel: workers})
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		bitwiseEqualFits(t, "parallel", seq, par)
	}
}

// TestBasisCacheInvariance is the cache half: fits through a cold cache,
// a warm cache, and no cache at all must agree bitwise, and the warm
// pass must actually hit the memoized factorizations. A dataset on one
// grid is one sighting of it, so the first pass builds its systems for
// itself, the second admits them and the third hits them.
func TestBasisCacheInvariance(t *testing.T) {
	d := hotpathDataset(9, 40)
	plain, err := FitDataset(d, Options{Parallel: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBasisCache()
	cold, err := FitDataset(d, Options{Parallel: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualFits(t, "cold cache", plain, cold)
	if s := cache.Stats(); s.Misses == 0 || s.Entries != 0 {
		t.Fatalf("cold pass: %+v; want misses and no entries", s)
	}
	admitting, err := FitDataset(d, Options{Parallel: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualFits(t, "admitting cache", plain, admitting)
	if s := cache.Stats(); s.Hits != 0 || s.Entries == 0 {
		t.Fatalf("second pass: %+v; want its grid admitted and no hits", s)
	}
	warm, err := FitDataset(d, Options{Parallel: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualFits(t, "warm cache", plain, warm)
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatalf("warm pass never hit the cache: %+v", s)
	}
}

// TestEvalGridCachedMatchesUncached pins the EvalGrid fix: the cached
// span design, the transient span design and the point-by-point Eval
// must agree bitwise for every derivative order the mappings use, and
// Fit.EvalGrid, which hashes the grid once and looks a design up once
// per run of parameters on one basis, must give each parameter's
// CurveFit.EvalGrid values.
func TestEvalGridCachedMatchesUncached(t *testing.T) {
	d := hotpathDataset(3, 50)
	// A sample whose second parameter oscillates eight times as fast,
	// faster than the basis sizes can follow on 50 points, so its two
	// parameters select different sizes.
	ts := d.Samples[0].Times
	slow, fast := make([]float64, len(ts)), make([]float64, len(ts))
	for j, tt := range ts {
		slow[j], fast[j] = math.Sin(2*math.Pi*tt), math.Sin(16*math.Pi*tt)
	}
	d.Samples = append(d.Samples, Sample{Times: ts, Values: [][]float64{slow, fast}})
	cache := NewBasisCache()
	cached, err := FitDataset(d, Options{Parallel: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FitDataset(d, Options{Parallel: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(0, 1, 37) // not the measurement grid: fresh span designs
	// shared counts the lookups one Fit.EvalGrid shared between
	// parameters, and split the calls that needed more than one.
	shared, split := 0, 0
	for i := range cached {
		for deriv := 0; deriv <= 2; deriv++ {
			// One Fit.EvalGrid looks a design up once per run of
			// parameters on one basis, and gives each parameter's values.
			lookups := 0
			for k, p := range cached[i].Params {
				if k == 0 || p.Basis != cached[i].Params[k-1].Basis {
					lookups++
				}
			}
			before := cache.Stats()
			all := cached[i].EvalGrid(grid, deriv)
			after := cache.Stats()
			if got := after.Hits + after.Misses - before.Hits - before.Misses; got != int64(lookups) {
				t.Fatalf("sample %d deriv %d: Fit.EvalGrid made %d design lookups, want %d", i, deriv, got, lookups)
			}
			shared += len(cached[i].Params) - lookups
			if lookups > 1 {
				split++
			}
			for k, p := range cached[i].Params {
				want := p.EvalGrid(grid, deriv)
				for j := range want {
					if math.Float64bits(all[k][j]) != math.Float64bits(want[j]) {
						t.Fatalf("sample %d param %d deriv %d: Fit.EvalGrid %v, CurveFit.EvalGrid %v", i, k, deriv, all[k][j], want[j])
					}
				}
			}
		}
		for k := range cached[i].Params {
			for deriv := 0; deriv <= 2; deriv++ {
				a := cached[i].Params[k].EvalGrid(grid, deriv)
				b := plain[i].Params[k].EvalGrid(grid, deriv)
				for j, tt := range grid {
					p := cached[i].Params[k].Eval(tt, deriv)
					if math.Float64bits(a[j]) != math.Float64bits(b[j]) ||
						math.Float64bits(a[j]) != math.Float64bits(p) {
						t.Fatalf("sample %d param %d deriv %d t=%g: cached %v, plain %v, pointwise %v",
							i, k, deriv, tt, a[j], b[j], p)
					}
				}
			}
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatalf("span designs never shared across fits: %+v", s)
	}
	if shared == 0 || split == 0 {
		t.Fatalf("%d shared and %d split lookups: a fit with two parameters on one basis and one with two bases are both needed", shared, split)
	}
}

// benchmarkFit returns one fitted curve for the EvalGrid benchmarks.
func benchmarkFit(b *testing.B) *CurveFit {
	b.Helper()
	d := hotpathDataset(1, 85)
	fit, err := fitCurve(d.Samples[0].Times, d.Samples[0].Values[0], Options{})
	if err != nil {
		b.Fatal(err)
	}
	return fit
}

// BenchmarkEvalGridBatched measures the span-batched grid evaluation that
// EvalGrid now uses; compare with BenchmarkEvalGridPointwise, the loop it
// replaced.
func BenchmarkEvalGridBatched(b *testing.B) {
	fit := benchmarkFit(b)
	grid := UniformGrid(0, 1, 85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit.EvalGrid(grid, 1)
	}
}

// BenchmarkEvalGridCached measures EvalGrid through a warm basis cache —
// the steady state of Pipeline.Score, where the span design of the
// common evaluation grid is computed once and every fit on it reduces to
// Order-wide dots.
func BenchmarkEvalGridCached(b *testing.B) {
	d := hotpathDataset(1, 85)
	cache := NewBasisCache()
	fits, err := FitDataset(d, Options{Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	fit := fits[0].Params[0]
	grid := UniformGrid(0, 1, 85)
	fit.EvalGrid(grid, 1) // warm the span design
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit.EvalGrid(grid, 1)
	}
}

// BenchmarkEvalGridPointwise measures the per-point path EvalGrid used to
// take: a full basis evaluation and a full-length dot at every grid point,
// touching all Dim basis functions instead of the Order non-zero ones.
func BenchmarkEvalGridPointwise(b *testing.B) {
	fit := benchmarkFit(b)
	grid := UniformGrid(0, 1, 85)
	buf := make([]float64, fit.Basis.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]float64, len(grid))
		for j, tt := range grid {
			fit.Basis.Eval(tt, 1, buf)
			out[j] = linalg.Dot(fit.Coef, buf)
		}
		_ = out
	}
}
