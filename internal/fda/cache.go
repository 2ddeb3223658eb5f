package fda

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// BasisCache memoizes the sample-independent linear algebra of the
// penalized smoother across fits: for every (basis size, order, penalty
// order, domain, measurement grid) combination it keeps the basis, the
// span-compact design matrix Φ, the band of the Gram matrix ΦᵀΦ, and — per
// candidate λ — the banded Cholesky factorization of ΦᵀΦ + λR together
// with the hat-matrix diagonal H_jj and tr(H), none of which depend on
// the observed values y. The roughness penalty R of Eq. 3 does not depend
// on the grid either, so the cache keeps one per (basis size, order,
// penalty order, domain), shared by every grid's entry and by every
// entry built for a single fit (a grid's first sighting, a stream's
// prefix grid, a key collision). Cross-validating over basis sizes and λ
// therefore stops re-deriving identical factorizations for every sample
// and every parameter: the per-fit work shrinks to one Φᵀy product, and
// per λ one O(L·k) solve, one Φα product and the residual scan.
//
// The fit entries are bounded. A grid is admitted on its second
// sighting: a doorkeeper, as in TinyLFU (Einziger, Friedman & Manes,
// 2017), records each missed key in a bitset of doorkeeperBits bits
// indexed by the key's hash and clears it after doorkeeperReset
// recorded sightings, and a key it has not seen gets an entry built for
// its one fit. So a one-off grid (a client that jitters its times)
// enters the cache only when its hash hits a bit another key set, while
// the training grid is resident from its second fit on. At most fitCap entries are resident, and CLOCK (second
// chance) evicts: the hand walks the resident keys in admission order,
// clearing each reference bit it passes, and evicts the first entry
// whose bit is already clear. A hit sets its entry's bit only when the
// bit is clear, so steady hits leave the entry's cache line, which
// every fit on it reads, unwritten. An entry
// holds its grid, its design, its Gram band and the default ladder's
// five λ factorizations with their hat diagonals: about 10–13 KB on a
// Fig. 3 grid (m = 85), and about 280 KB at stream.MaxPoints = 2048
// points and the ladder's largest size there, L = 512. So the resident
// entries stay under about 36 MB. The shared penalties and the span
// designs are outside the cap: they are keyed by basis size and domain
// (the designs also by evaluation grid), and a fitted Pipeline fixes
// the domain and the evaluation grid, so they grow only with the basis
// sizes its curves' lengths select.
//
// The cache also memoizes span-compact design matrices per (basis,
// grid, derivative), which CurveFit.EvalGrid uses to evaluate
// fitted curves and their derivatives without re-running the Cox–de
// Boor recursion per sample.
//
// A BasisCache is safe for concurrent use; all cached values are pure
// functions of their keys, and an entry built for one fit runs the same
// arithmetic as a resident one, so neither warming, admission nor
// eviction changes a result bit (see TestBasisCacheInvariance). Only
// the default clamped B-spline construction is cacheable — fits with a
// custom Options.Basis factory bypass the cache, because a factory
// closure cannot be keyed.
type BasisCache struct {
	mu        sync.Mutex
	fits      map[fitKey]*fitEntry
	designs   map[designKey]*designEntry
	penalties map[penaltyKey]*penalty

	// clock lists the resident fit keys, one per entry of fits; hand is
	// the next slot CLOCK examines.
	clock []fitKey
	hand  int
	// seen is the doorkeeper, with sightings the bits recorded since its
	// last reset.
	seen      [doorkeeperBits / 64]uint64
	sightings int

	admitted, evicted int64 // guarded by mu
	hits, misses      atomic.Int64
}

// The cache's bounds. fitCap holds the training grid's four Fig. 3
// basis sizes and 31 more grids of four. The doorkeeper takes 8 KB and
// is cleared after 4,096 recorded sightings, so at most one bit in 16
// is set, and a one-off grid passes it by a hash collision at most one
// time in 16 (about one in 32 on average).
const (
	fitCap          = 128
	doorkeeperBits  = 1 << 16
	doorkeeperReset = doorkeeperBits / 16
)

// NewBasisCache returns an empty cache. One cache per fitted Pipeline
// (or per FitDataset call) is the intended granularity.
func NewBasisCache() *BasisCache {
	return &BasisCache{
		fits:      make(map[fitKey]*fitEntry),
		designs:   make(map[designKey]*designEntry),
		penalties: make(map[penaltyKey]*penalty),
	}
}

// CacheStats reports the cache's counters for benchmarks, tests and
// the serving tier's page. Hits and Misses count fit-entry and
// span-design lookups combined (penalty lookups are not counted);
// Entries is the resident fit entries, Admitted and Evicted the fit
// entries that have entered and left.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Admitted int64 `json:"admitted"`
	Evicted  int64 `json:"evicted"`
}

// Stats returns the cache's counters.
func (c *BasisCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Entries:  len(c.clock),
		Admitted: c.admitted,
		Evicted:  c.evicted,
	}
}

// fitKey identifies one smoothing system. The grid is keyed by a hash of
// its float bits plus its length; the entry keeps the grid itself and
// lookups verify exact equality, so a collision degrades to a cache
// bypass, never to a wrong matrix. fitGrid hashes its grid once and
// looks every basis size up under the same hash.
type fitKey struct {
	dim, order, q int
	lo, hi        float64
	m             int
	tsHash        uint64
}

// penaltyKey identifies one roughness penalty: the basis (size, order,
// domain bits) and the penalty order, never the grid.
type penaltyKey struct {
	dim, order, q int
	lo, hi        uint64
}

// designKey identifies one span-compact design matrix.
type designKey struct {
	dim, order, deriv int
	lo, hi            float64
	m                 int
	tsHash            uint64
}

// designEntry pairs the memoized compact design with the grid it was
// built on, for exact-equality verification.
type designEntry struct {
	ts []float64
	sd *linalg.SpanMatrix
}

// hashFloats hashes the IEEE-754 bit patterns of xs a word at a time
// (see mix).
func hashFloats(xs []float64) uint64 {
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	for _, x := range xs {
		h = mix(h, math.Float64bits(x))
	}
	return h
}

// mix folds one 64-bit word into h: FNV-1a's xor-multiply step, with a
// rotation so that high bits reach the low ones.
func mix(h, w uint64) uint64 {
	const prime64 = 1099511628211
	return bits.RotateLeft64((h^w)*prime64, 29)
}

// hash folds every field of the key into its grid hash; the doorkeeper
// indexes its bitset by it.
func (k fitKey) hash() uint64 {
	h := k.tsHash
	for _, w := range [...]uint64{uint64(k.dim), uint64(k.order), uint64(k.q), math.Float64bits(k.lo), math.Float64bits(k.hi), uint64(k.m)} {
		h = mix(h, w)
	}
	return h
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fitEntryFor returns the shared entry for the default clamped B-spline
// system of the key's size on the grid ts, admitting it on the key's
// second sighting (see BasisCache). It returns nil on a first sighting,
// when the basis cannot be constructed, or when the key collides with
// a different grid; the caller then builds an entry for the one fit,
// which runs the exact same arithmetic.
func (c *BasisCache) fitEntryFor(key fitKey, ts []float64) *fitEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.residentLocked(key, ts); e != nil {
		return e
	}
	c.misses.Add(1)
	if _, collides := c.fits[key]; collides || !c.sightedLocked(key) {
		return nil
	}
	basis, err := bspline.New(key.dim, key.order, key.lo, key.hi)
	if err != nil {
		return nil
	}
	e := newFitEntry(basis, slices.Clone(ts), key.q, c.penaltyLocked(key.dim, key.order, key.q, key.lo, key.hi))
	c.admitLocked(key, e)
	return e
}

// lookupFitEntry returns the resident entry for the exact grid when one
// is already cached, or nil. Unlike fitEntryFor it neither admits nor
// records a sighting: a growing stream passes through a different
// prefix grid on every refit. Incremental.Fit uses it to reuse the
// entries the batch path admitted (identical grids share λ
// factorizations) and builds any other system for the one refit.
func (c *BasisCache) lookupFitEntry(key fitKey, ts []float64) *fitEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.residentLocked(key, ts)
	if e == nil {
		c.misses.Add(1)
	}
	return e
}

// residentLocked returns the resident entry of key when it holds the
// grid ts, counting the hit and setting the entry's reference bit, or
// nil.
func (c *BasisCache) residentLocked(key fitKey, ts []float64) *fitEntry {
	e, ok := c.fits[key]
	if !ok || !sameFloats(e.ts, ts) {
		return nil
	}
	if !e.ref {
		e.ref = true
	}
	c.hits.Add(1)
	return e
}

// sightedLocked reports whether the doorkeeper has recorded key since
// its last reset, and records it when it has not.
func (c *BasisCache) sightedLocked(key fitKey) bool {
	i := key.hash() % doorkeeperBits
	word, bit := i/64, uint64(1)<<(i%64)
	if c.seen[word]&bit != 0 {
		return true
	}
	if c.sightings++; c.sightings > doorkeeperReset {
		clear(c.seen[:])
		c.sightings = 1
	}
	c.seen[word] |= bit
	return false
}

// admitLocked makes e resident under key. At the cap, CLOCK's hand
// clears the reference bits it passes and evicts the first entry whose
// bit is clear; e takes that entry's slot, and the hand moves past it,
// so a new entry gets a full turn before the hand reaches it again.
func (c *BasisCache) admitLocked(key fitKey, e *fitEntry) {
	c.admitted++
	c.fits[key] = e
	if len(c.clock) < fitCap {
		c.clock = append(c.clock, key)
		return
	}
	for {
		victim := c.fits[c.clock[c.hand]]
		if !victim.ref {
			break
		}
		victim.ref = false
		c.hand = (c.hand + 1) % fitCap
	}
	delete(c.fits, c.clock[c.hand])
	c.evicted++
	c.clock[c.hand] = key
	c.hand = (c.hand + 1) % fitCap
}

// penaltyFor returns the shared penalty slot of one basis and penalty
// order; the matrix itself is built by its first user.
func (c *BasisCache) penaltyFor(dim, order, q int, lo, hi float64) *penalty {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.penaltyLocked(dim, order, q, lo, hi)
}

// penaltyLocked is penaltyFor for a caller that holds c.mu.
func (c *BasisCache) penaltyLocked(dim, order, q int, lo, hi float64) *penalty {
	key := penaltyKey{dim: dim, order: order, q: q, lo: math.Float64bits(lo), hi: math.Float64bits(hi)}
	pen, ok := c.penalties[key]
	if !ok {
		pen = new(penalty)
		c.penalties[key] = pen
	}
	return pen
}

// spanDesign returns the memoized compact design of the basis on ts at
// the given derivative order, building it on first use. A key collision
// returns nil and the caller evaluates transiently.
func (c *BasisCache) spanDesign(b *bspline.BSpline, ts []float64, deriv int) *linalg.SpanMatrix {
	lo, hi := b.Domain()
	key := designKey{dim: b.Dim(), order: b.Order(), deriv: deriv, lo: lo, hi: hi, m: len(ts), tsHash: hashFloats(ts)}
	c.mu.Lock()
	e, ok := c.designs[key]
	if ok && sameFloats(e.ts, ts) {
		c.mu.Unlock()
		c.hits.Add(1)
		return e.sd
	}
	if ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	tsCopy := make([]float64, len(ts))
	copy(tsCopy, ts)
	sd := bspline.NewSpanDesign(b, tsCopy, deriv)
	c.designs[key] = &designEntry{ts: tsCopy, sd: sd}
	c.mu.Unlock()
	c.misses.Add(1)
	return sd
}

// fitEntry bundles the sample-independent pieces of one smoothing
// system: basis, span-compact design Φ, the lower band of the Gram ΦᵀΦ,
// the penalty R (built lazily, and shared through the cache between
// entries of one basis), and per-λ factorizations with their hat
// diagonals. Entries are built once and shared across goroutines; the
// mutex guards only the λ factorizations.
type fitEntry struct {
	basis     bspline.Basis
	bandwidth int // band of ΦᵀΦ + λR
	ts        []float64
	phi       *linalg.SpanMatrix
	gram      []float64 // lower band of ΦᵀΦ, stored as NewBandCholesky reads it
	q         int
	pen       *penalty
	// ref is the entry's CLOCK reference bit, guarded by the cache's mu.
	ref bool

	mu      sync.Mutex
	lambdas map[uint64]*lambdaFactor
}

// penalty is one roughness penalty R, built once on first use.
type penalty struct {
	once sync.Once
	r    *linalg.Dense
	err  error
}

// matrix returns R for the basis and penalty order, building it on the
// first call with the seed path's quadrature order: order − q
// Gauss–Legendre nodes per panel for a B-spline (exact), 8 otherwise.
func (pen *penalty) matrix(basis bspline.Basis, q int) (*linalg.Dense, error) {
	pen.once.Do(func() {
		nodes := 8
		if bs, ok := basis.(*bspline.BSpline); ok {
			nodes = max(1, bs.Order()-q)
		}
		pen.r, pen.err = bspline.PenaltyMatrix(basis, q, nodes)
	})
	return pen.r, pen.err
}

// lambdaFactor is one factorized system ΦᵀΦ + λR plus the hat-matrix
// diagonal H_jj = φ(t_j)ᵀ (ΦᵀΦ + λR)⁻¹ φ(t_j) and its trace, which
// depend only on the design, never on the fitted sample. err records a
// factorization that failed even after the ridge retry, or a hat
// diagonal that is not finite; the λ candidate is then skipped.
type lambdaFactor struct {
	solver *linalg.BandCholesky
	hat    []float64
	trH    float64
	err    error
}

// newFitEntry builds the eager members (design and Gram band). ts is
// retained; callers that reuse their grid slice must pass a stable one
// (the cache passes a copy of the grid it admits, transient entries
// live only for one fit). pen is the cache's shared penalty slot, or a fresh one
// when no cache is in play.
func newFitEntry(basis bspline.Basis, ts []float64, q int, pen *penalty) *fitEntry {
	// Any other basis fills the whole lower triangle (bandwidth L−1).
	e := &fitEntry{basis: basis, ts: ts, q: q, pen: pen, bandwidth: basis.Dim() - 1}
	if bs, ok := basis.(*bspline.BSpline); ok {
		// B-spline normal equations are banded with bandwidth order−1
		// (local support), so the factorization and the hat diagonal
		// run in O(L·k²) instead of O(L³).
		e.bandwidth = bs.Order() - 1
	}
	// Each design row keeps only its k = order nonzero values, so the
	// Gram costs O(m·k²) instead of O(m·L²) and keeps only the band the
	// assembly reads; a custom basis keeps its full rows and the whole
	// lower triangle.
	e.phi = bspline.NewSpanDesign(basis, ts, 0)
	e.gram = make([]float64, basis.Dim()*(e.bandwidth+1))
	if err := e.phi.GramBandInto(e.bandwidth, e.gram); err != nil {
		panic(err) // the design's windows are order (or L) wide, within the band
	}
	return e
}

// ensurePenalty forces the penalty build when any λ > 0 is in play, so a
// penalty construction failure aborts the whole basis size exactly as
// the sequential seed path did.
func (e *fitEntry) ensurePenalty() error {
	_, err := e.pen.matrix(e.basis, e.q)
	return err
}

// lambdaFactors writes the factorized system of each λ into dst, in
// order, building and memoizing any not yet built.
func (e *fitEntry) lambdaFactors(lambdas []float64, dst []*lambdaFactor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lambdas == nil {
		e.lambdas = make(map[uint64]*lambdaFactor)
	}
	for i, lambda := range lambdas {
		key := math.Float64bits(lambda)
		lf, ok := e.lambdas[key]
		if !ok {
			lf = e.buildLambdaFactor(lambda)
			e.lambdas[key] = lf
		}
		dst[i] = lf
	}
}

// buildLambdaFactor factors ΦᵀΦ + λR and precomputes the hat
// diagonal. A λ whose hat diagonal is not finite fails like a failed
// factorization. Caller must hold e.mu.
func (e *fitEntry) buildLambdaFactor(lambda float64) *lambdaFactor {
	ch, err := e.factor(lambda)
	if err != nil {
		return &lambdaFactor{err: err}
	}
	// Hat diagonal H_jj = φ(t_j)ᵀ (ΦᵀΦ + λR)⁻¹ φ(t_j), done once per
	// (basis, λ) instead of once per sample.
	hat := make([]float64, len(e.ts))
	if err := ch.HatDiag(e.phi, hat); err != nil {
		return &lambdaFactor{err: err}
	}
	if !finite(hat) {
		return &lambdaFactor{err: fmt.Errorf("fda: hat diagonal for λ = %g is not finite: %w", lambda, ErrFit)}
	}
	var trH float64
	for _, h := range hat {
		trH += h
	}
	return &lambdaFactor{solver: ch, hat: hat, trH: trH}
}

// factor assembles ΦᵀΦ + λR straight into band storage and factors it
// in place, with the seed path's tiny-ridge retry on semi-definite
// systems.
func (e *fitEntry) factor(lambda float64) (*linalg.BandCholesky, error) {
	var r *linalg.Dense
	if lambda > 0 {
		var err error
		if r, err = e.pen.matrix(e.basis, e.q); err != nil {
			return nil, err
		}
	}
	L, k := e.basis.Dim(), e.bandwidth
	band := make([]float64, L*(k+1))
	peak := e.assemble(band, lambda, r)
	ch, err := linalg.NewBandCholesky(L, k, band)
	if err == nil {
		return ch, nil
	}
	// Semi-definite system (e.g. λ = 0 with near-collinear columns); add
	// a tiny ridge and retry once.
	e.assemble(band, lambda, r)
	eps := 1e-9 * (1 + peak)
	for i := 0; i < L; i++ {
		band[i*(k+1)+k] += eps
	}
	return linalg.NewBandCholesky(L, k, band)
}

// assemble writes the lower band of ΦᵀΦ + λR into band (r is R, or nil
// when λ = 0) and returns its largest magnitude. That is the largest
// magnitude of the whole matrix: both terms are symmetric, and off the
// band of a B-spline system they are exact +0.
func (e *fitEntry) assemble(band []float64, lambda float64, r *linalg.Dense) float64 {
	L, k := e.basis.Dim(), e.bandwidth
	var peak float64
	for i := 0; i < L; i++ {
		gi, row := e.gram[i*(k+1):(i+1)*(k+1)], band[i*(k+1):(i+1)*(k+1)]
		for j := max(0, i-k); j <= i; j++ {
			v := gi[j-i+k]
			if r != nil {
				v += lambda * r.At(i, j)
			}
			row[j-i+k] = v
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
	}
	return peak
}
