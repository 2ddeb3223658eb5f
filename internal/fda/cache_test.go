package fda

import (
	"math/rand"
	"sync"
	"testing"
)

// cacheTestGrids is how many grids the bounded-cache tests fit: far
// more than fitCap, and more than the doorkeeper records between two
// resets.
const cacheTestGrids = 10_000

// fitDelta fits s on opt and returns the cache's hits and misses during
// the fit.
func fitDelta(t *testing.T, s Sample, opt Options) (hits, misses int64) {
	t.Helper()
	before := opt.Cache.Stats()
	if _, err := FitSample(s, opt); err != nil {
		t.Fatal(err)
	}
	after := opt.Cache.Stats()
	return after.Hits - before.Hits, after.Misses - before.Misses
}

// TestBasisCacheAdmitsOnSecondSighting: a grid's first two fits miss
// every basis size, the second admits them, and the third hits them.
func TestBasisCacheAdmitsOnSecondSighting(t *testing.T) {
	s := randomSample(rand.New(rand.NewSource(50)), 2, 30)
	opt := incTestOpts()
	opt.Cache = NewBasisCache()
	n := int64(len(opt.dims(len(s.Times))))
	for fit, want := range []struct{ hits, misses, entries int64 }{
		{0, n, 0},
		{0, n, n},
		{n, 0, n},
	} {
		hits, misses := fitDelta(t, s, opt)
		if entries := int64(opt.Cache.Stats().Entries); hits != want.hits || misses != want.misses || entries != want.entries {
			t.Fatalf("fit %d: %d hits, %d misses, %d entries; want %d, %d, %d",
				fit+1, hits, misses, entries, want.hits, want.misses, want.entries)
		}
	}
}

// TestBasisCacheSharedByTwoLadders: one cache serves two λ ladders with
// no λ in common on one grid, fit in turn, twice each. The grid's second
// sighting admits the second ladder's entries, and the first ladder's
// second fit collides with them and builds its own; every fit is
// bitwise its ladder's uncached fit, so neither ladder's fit reads the
// other's factorizations.
func TestBasisCacheSharedByTwoLadders(t *testing.T) {
	s := randomSample(rand.New(rand.NewSource(52)), 2, 40)
	cache := NewBasisCache()
	ladders := [][]float64{{0, 1e-6, 1e-2}, {1e-8, 1e-4, 1}}
	for range 2 {
		for _, lambdas := range ladders {
			opt := incTestOpts()
			opt.Lambdas = lambdas
			opt.NoCache = true
			plain, err := FitSample(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.NoCache, opt.Cache = false, cache
			got, err := FitSample(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseFit(t, got, plain)
		}
	}
	n := len(incTestOpts().dims(len(s.Times)))
	if st := cache.Stats(); st.Entries != n || st.Admitted != int64(n) || st.Hits != int64(n) {
		t.Fatalf("%+v; want the second ladder's %d sizes admitted and hit once each", st, n)
	}
}

// TestBasisCacheConcurrentAdmission: eight goroutines fit one grid twice
// each on a cold cache. Fits that sight a size at once may each build
// its entry, but only one becomes resident, and every fit is bitwise
// the uncached fit. The grid's 400 points make a build long enough that
// concurrent builds overlap on two CPUs.
func TestBasisCacheConcurrentAdmission(t *testing.T) {
	s := randomSample(rand.New(rand.NewSource(53)), 2, 400)
	plain, err := FitSample(s, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	opt := incTestOpts()
	opt.Cache = NewBasisCache()
	const workers = 8
	fits := make([][2]*Fit, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range fits[w] {
				if fits[w][i], errs[w] = FitSample(s, opt); errs[w] != nil {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for _, got := range fits[w] {
			requireBitwiseFit(t, got, plain)
		}
	}
	n := int64(len(opt.dims(len(s.Times))))
	if st := opt.Cache.Stats(); st.Admitted != n || st.Entries != int(n) {
		t.Fatalf("%+v; want each of the %d basis sizes admitted once", st, n)
	}
}

// TestBasisCacheBoundedOverDistinctGrids: fitting many distinct grids
// twice each admits every one of them, yet the resident entries never
// pass fitCap, and every fit, admitted, evicted or built for one fit,
// is bitwise the uncached fit.
func TestBasisCacheBoundedOverDistinctGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	opt := incTestOpts()
	opt.Cache = NewBasisCache()
	plainOpt := incTestOpts()
	plainOpt.NoCache = true
	for range cacheTestGrids {
		// Twelve points keep one basis size (L = 4) per grid.
		s := randomSample(rng, 2, 12)
		plain, err := FitSample(s, plainOpt)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			got, err := FitSample(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseFit(t, got, plain)
			if n := opt.Cache.Stats().Entries; n > fitCap {
				t.Fatalf("%d resident entries, cap %d", n, fitCap)
			}
		}
	}
	st := opt.Cache.Stats()
	if st.Entries != fitCap || st.Admitted != cacheTestGrids || st.Evicted != cacheTestGrids-fitCap {
		t.Fatalf("after %d grids fit twice: %+v; want %d entries, %d admitted, %d evicted",
			cacheTestGrids, st, fitCap, cacheTestGrids, cacheTestGrids-fitCap)
	}
}

// TestBasisCacheKeepsTrainingGridAmongOneOffs: one-off grids fit
// between fits on a training grid never displace it. Every training
// fit after the second hits each basis size, although the doorkeeper's
// hash collisions admit enough one-off grids to fill the cap and make
// CLOCK evict.
func TestBasisCacheKeepsTrainingGridAmongOneOffs(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	opt := incTestOpts()
	opt.Cache = NewBasisCache()
	train := randomSample(rng, 2, 12)
	n := int64(len(opt.dims(len(train.Times))))
	for i := range cacheTestGrids {
		hits, misses := fitDelta(t, train, opt)
		if i >= 2 && (hits != n || misses != 0) {
			t.Fatalf("training fit %d: %d hits and %d misses, want %d hits", i+1, hits, misses, n)
		}
		if _, err := FitSample(randomSample(rng, 2, 12), opt); err != nil {
			t.Fatal(err)
		}
	}
	st := opt.Cache.Stats()
	if st.Evicted == 0 || st.Entries > fitCap {
		t.Fatalf("after %d one-off grids: %+v; want evictions and at most %d entries", cacheTestGrids, st, fitCap)
	}
}

// TestPenaltyStorageIsBanded: one curve at each of 20 lengths from 40
// points to the serving tier's 2048-point limit (stream.MaxPoints)
// leaves one penalty per basis size in the cache, and each keeps only
// its lower band, L·order floats, never the dense L×L.
func TestPenaltyStorageIsBanded(t *testing.T) {
	const lengths, shortest, longest = 20, 40, 2048
	rng := rand.New(rand.NewSource(51))
	opt := incTestOpts()
	opt.Cache = NewBasisCache()
	for i := range lengths {
		m := shortest + i*(longest-shortest)/(lengths-1)
		if _, err := FitSample(randomSample(rng, 1, m), opt); err != nil {
			t.Fatalf("%d points: %v", m, err)
		}
	}
	c := opt.Cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var held, bound, dense int
	for key, pen := range c.penalties {
		held += len(pen.lower)
		bound += key.dim * key.order
		dense += key.dim * key.dim
	}
	if held == 0 || held > bound {
		t.Fatalf("%d penalties hold %d floats; want at most Σ L·order = %d (dense: %d)",
			len(c.penalties), held, bound, dense)
	}
	t.Logf("%d penalties hold %d floats (%.1f KB); dense they would hold %d (%.1f MB)",
		len(c.penalties), held, float64(8*held)/1e3, dense, float64(8*dense)/1e6)
}
