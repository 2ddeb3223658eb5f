package fda

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// incTestOpts is the streaming configuration under test: fixed domain
// (required by the incremental fitter), default basis-size ladder and λ
// grid, so prefix fits exercise the dims(m) pruning logic too.
func incTestOpts() Options { return Options{Lo: 0, Hi: 1} }

// randomSample draws one p-parameter sample on m distinct random times
// in (0, 1): smooth signal plus noise, the same family the smoothing
// tests use.
func randomSample(rng *rand.Rand, p, m int) Sample {
	ts := make([]float64, 0, m)
	seen := map[uint64]bool{}
	for len(ts) < m {
		t := rng.Float64()
		b := math.Float64bits(t)
		if seen[b] {
			continue
		}
		seen[b] = true
		ts = append(ts, t)
	}
	sortFloats(ts)
	s := Sample{Times: ts, Values: make([][]float64, p)}
	for k := 0; k < p; k++ {
		phase := rng.Float64() * 2 * math.Pi
		vals := make([]float64, m)
		for j, t := range ts {
			vals[j] = math.Sin(2*math.Pi*float64(k+1)*t+phase) + 0.05*rng.NormFloat64()
		}
		s.Values[k] = vals
	}
	return s
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// requireBitwiseFit asserts two fits are IEEE-754 identical in every
// selected coefficient and selection score. This is the strong half of
// the batch-equivalence contract; see the Incremental type comment.
func requireBitwiseFit(t *testing.T, got, want *Fit) {
	t.Helper()
	if got.Dim() != want.Dim() {
		t.Fatalf("dim: got %d want %d", got.Dim(), want.Dim())
	}
	for k := range want.Params {
		g, w := got.Params[k], want.Params[k]
		if g.Basis.Dim() != w.Basis.Dim() {
			t.Fatalf("param %d: basis dim %d vs %d", k, g.Basis.Dim(), w.Basis.Dim())
		}
		if math.Float64bits(g.Lambda) != math.Float64bits(w.Lambda) {
			t.Fatalf("param %d: lambda %g vs %g", k, g.Lambda, w.Lambda)
		}
		for _, pair := range [][2]float64{{g.Score, w.Score}, {g.LOOCV, w.LOOCV}, {g.GCV, w.GCV}, {g.DF, w.DF}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("param %d: selection score %v vs %v", k, pair[0], pair[1])
			}
		}
		if len(g.Coef) != len(w.Coef) {
			t.Fatalf("param %d: coef len %d vs %d", k, len(g.Coef), len(w.Coef))
		}
		for i := range w.Coef {
			if math.Float64bits(g.Coef[i]) != math.Float64bits(w.Coef[i]) {
				t.Fatalf("param %d coef %d: %v vs %v (bit diff)", k, i, g.Coef[i], w.Coef[i])
			}
		}
	}
}

func appendAll(t *testing.T, inc *Incremental, s Sample, order []int) {
	t.Helper()
	vals := make([]float64, len(s.Values))
	for _, j := range order {
		for k := range s.Values {
			vals[k] = s.Values[k][j]
		}
		if err := inc.Append(s.Times[j], vals); err != nil {
			t.Fatalf("append %d: %v", j, err)
		}
	}
}

// TestIncrementalMatchesBatchInOrder: observations arriving in time
// order land bitwise on the batch fit.
func TestIncrementalMatchesBatchInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		m := 20 + rng.Intn(60)
		p := 1 + rng.Intn(3)
		s := randomSample(rng, p, m)
		inc, err := NewIncremental(p, incTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, m)
		for j := range order {
			order[j] = j
		}
		appendAll(t, inc, s, order)
		got, err := inc.Fit()
		if err != nil {
			t.Fatal(err)
		}
		want, err := FitSample(s, incTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseFit(t, got, want)
	}
}

// TestIncrementalMatchesBatchAnyOrder: the property at the heart of the
// suite — for ANY append order and chunking, the completed stream fits
// bitwise identically to batch FitSample. Shuffled orders force
// mid-grid inserts.
func TestIncrementalMatchesBatchAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		m := 15 + rng.Intn(70)
		p := 1 + rng.Intn(3)
		s := randomSample(rng, p, m)
		order := rng.Perm(m)
		inc, err := NewIncremental(p, incTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, inc, s, order)
		// Interleave fits mid-stream (ragged chunking): each prefix fit
		// must also match the batch fit of the prefix sample.
		got, err := inc.Fit()
		if err != nil {
			t.Fatal(err)
		}
		want, err := FitSample(s, incTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseFit(t, got, want)
	}
}

// TestIncrementalPrefixFitsMatchBatch: fits taken mid-stream (partial
// curves) match the batch fit of exactly the observed prefix — the
// early-warning scores downstream inherit batch semantics at every
// point in time, not just at completion.
func TestIncrementalPrefixFitsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randomSample(rng, 2, 48)
	inc, err := NewIncremental(2, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 2)
	for j := range s.Times {
		for k := range s.Values {
			vals[k] = s.Values[k][j]
		}
		if err := inc.Append(s.Times[j], vals); err != nil {
			t.Fatal(err)
		}
		if j < 1 || j%7 != 0 && j != len(s.Times)-1 {
			continue
		}
		got, err := inc.Fit()
		if err != nil {
			t.Fatalf("prefix %d: %v", j+1, err)
		}
		prefix := Sample{Times: s.Times[:j+1], Values: [][]float64{s.Values[0][:j+1], s.Values[1][:j+1]}}
		want, err := FitSample(prefix, incTestOpts())
		if err != nil {
			t.Fatalf("batch prefix %d: %v", j+1, err)
		}
		requireBitwiseFit(t, got, want)
	}
}

// TestIncrementalDuplicateTimes: re-observing a timestamp replaces the
// value (last write wins) without growing the grid; the stream must
// match the batch fit of the de-duplicated sample.
func TestIncrementalDuplicateTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := randomSample(rng, 2, 40)
	inc, err := NewIncremental(2, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(s.Times))
	for j := range order {
		order[j] = j
	}
	appendAll(t, inc, s, order)
	// Re-observe a third of the timestamps with fresh values; mutate the
	// reference sample identically.
	for i := 0; i < len(s.Times); i += 3 {
		vals := []float64{rng.NormFloat64(), rng.NormFloat64()}
		s.Values[0][i], s.Values[1][i] = vals[0], vals[1]
		if err := inc.Append(s.Times[i], vals); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Len() != len(s.Times) {
		t.Fatalf("duplicates changed the grid: %d vs %d", inc.Len(), len(s.Times))
	}
	got, err := inc.Fit()
	if err != nil {
		t.Fatal(err)
	}
	want, err := FitSample(s, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseFit(t, got, want)
}

// TestIncrementalSlidingWindow: trimming to the newest points matches
// the batch fit over exactly the surviving window.
func TestIncrementalSlidingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := randomSample(rng, 2, 60)
	inc, err := NewIncremental(2, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(s.Times))
	for j := range order {
		order[j] = j
	}
	appendAll(t, inc, s, order)
	const keep = 25
	if dropped := inc.TrimOldest(keep); dropped != len(s.Times)-keep {
		t.Fatalf("dropped %d, want %d", dropped, len(s.Times)-keep)
	}
	got, err := inc.Fit()
	if err != nil {
		t.Fatal(err)
	}
	start := len(s.Times) - keep
	window := Sample{Times: s.Times[start:], Values: [][]float64{s.Values[0][start:], s.Values[1][start:]}}
	want, err := FitSample(window, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseFit(t, got, want)
}

// TestIncrementalSharedCache: a stream fit over a BasisCache that
// already holds the completed grid rides the resident entry and still
// matches an uncached batch fit bitwise.
func TestIncrementalSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	s := randomSample(rng, 2, 30)
	cache := NewBasisCache()
	opt := incTestOpts()
	opt.Cache = cache
	// Batch-fit first, twice, so the cache admits the full grid's
	// entries.
	var want *Fit
	for range 2 {
		var err error
		if want, err = FitSample(s, opt); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := NewIncremental(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(s.Times))
	for j := range order {
		order[j] = j
	}
	appendAll(t, inc, s, order)
	hitsBefore := cache.Stats().Hits
	got, err := inc.Fit()
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter := cache.Stats().Hits
	if hitsAfter <= hitsBefore {
		t.Fatalf("completed-grid fit missed the resident cache entries (hits %d -> %d)", hitsBefore, hitsAfter)
	}
	requireBitwiseFit(t, got, want)
	plain, err := FitSample(s, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseFit(t, got, plain)
}

// TestPenaltySharedAcrossGridsAndStreams: the cache keeps one penalty
// per basis size, which every grid's entry and every stream refit read,
// and streams refitting concurrently with batch fits on that cache stay
// bitwise on the uncached batch path.
func TestPenaltySharedAcrossGridsAndStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	samples := make([]Sample, 4)
	for i := range samples {
		samples[i] = randomSample(rng, 2, 24+3*i)
	}
	// A stream alone never inserts fit entries, yet builds its penalties
	// in the cache, once per basis size.
	cache := NewBasisCache()
	opt := incTestOpts()
	opt.Cache = cache
	inc, err := NewIncremental(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(samples[0].Times))
	for j := range order {
		order[j] = j
	}
	appendAll(t, inc, samples[0], order)
	if _, err := inc.Fit(); err != nil {
		t.Fatal(err)
	}
	if len(cache.fits) != 0 || len(cache.penalties) != len(opt.dims(len(samples[0].Times))) {
		t.Fatalf("stream fit left %d fit entries and %d penalties", len(cache.fits), len(cache.penalties))
	}
	for _, pen := range cache.penalties {
		if pen.lower == nil {
			t.Fatal("stream fit did not build its penalty in the cache")
		}
	}

	type prefixFits struct{ stream, batch []*Fit }
	results := make([]prefixFits, len(samples))
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	for i, s := range samples {
		wg.Add(1)
		go func(i int, s Sample) {
			defer wg.Done()
			inc, err := NewIncremental(2, opt)
			if err != nil {
				errs[i] = err
				return
			}
			for j, tj := range s.Times {
				if err := inc.Append(tj, []float64{s.Values[0][j], s.Values[1][j]}); err != nil {
					errs[i] = err
					return
				}
				if j == 0 {
					continue
				}
				got, err := inc.Fit()
				if err != nil {
					errs[i] = err
					return
				}
				// Twice, so the cache admits the prefix grid.
				prefix := Sample{Times: s.Times[:j+1], Values: [][]float64{s.Values[0][:j+1], s.Values[1][:j+1]}}
				var batch *Fit
				for range 2 {
					if batch, err = FitSample(prefix, opt); err != nil {
						errs[i] = err
						return
					}
				}
				results[i].stream = append(results[i].stream, got)
				results[i].batch = append(results[i].batch, batch)
			}
		}(i, s)
	}
	wg.Wait()
	for i, s := range samples {
		if errs[i] != nil {
			t.Fatalf("sample %d: %v", i, errs[i])
		}
		for j, got := range results[i].stream {
			prefix := Sample{Times: s.Times[:j+2], Values: [][]float64{s.Values[0][:j+2], s.Values[1][:j+2]}}
			plain, err := FitSample(prefix, incTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseFit(t, got, plain)
			requireBitwiseFit(t, results[i].batch[j], plain)
		}
	}
	sizes := map[penaltyKey]bool{}
	for key := range cache.fits {
		pk := penaltyKey{dim: key.dim, order: key.order, q: key.q, lo: math.Float64bits(key.lo), hi: math.Float64bits(key.hi)}
		if pen := cache.penalties[pk]; pen == nil || pen.lower == nil {
			t.Fatalf("resident basis size %d has no penalty built in the cache", key.dim)
		}
		sizes[pk] = true
	}
	if len(cache.penalties) != len(sizes) {
		t.Fatalf("cache holds %d penalties for %d resident basis sizes", len(cache.penalties), len(sizes))
	}
}

// TestIncrementalValidation: rejected appends must leave the stream
// untouched, and construction must demand a fixed domain.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(2, Options{}); !errors.Is(err, ErrData) {
		t.Fatalf("domainless construction: %v", err)
	}
	if _, err := NewIncremental(0, incTestOpts()); !errors.Is(err, ErrData) {
		t.Fatalf("p=0 construction: %v", err)
	}
	inc, err := NewIncremental(2, incTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(0.5, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		t    float64
		vals []float64
	}{
		{math.NaN(), []float64{1, 2}},
		{math.Inf(1), []float64{1, 2}},
		{1.5, []float64{1, 2}},   // outside domain
		{-0.25, []float64{1, 2}}, // outside domain
		{0.25, []float64{1}},     // wrong arity
		{0.25, []float64{math.NaN(), 2}},
		{0.25, []float64{1, math.Inf(-1)}},
	}
	for _, b := range bad {
		if err := inc.Append(b.t, b.vals); !errors.Is(err, ErrData) {
			t.Fatalf("append(%v, %v): %v", b.t, b.vals, err)
		}
	}
	if inc.Len() != 1 {
		t.Fatalf("rejected appends mutated the stream: len %d", inc.Len())
	}
	if _, err := inc.Fit(); !errors.Is(err, ErrData) {
		t.Fatalf("fit with 1 point: %v", err)
	}
}
