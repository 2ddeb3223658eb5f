package fda

import (
	"math/rand"
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
