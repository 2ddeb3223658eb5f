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
// order, domain, measurement grid) combination it keeps one λ ladder's
// fit entry — the basis, the span-compact design matrix Φ and, per
// candidate λ, the banded Cholesky factorization of ΦᵀΦ + λR together
// with the hat-matrix diagonal H_jj and tr(H), none of which depend on
// the observed values y. The roughness penalty R of Eq. 3 does not depend
// on the grid either, so the cache keeps one per (basis size, order,
// penalty order, domain), shared by every grid's entry and by every
// entry built for a single group of fits (a grid's first sighting, a
// stream's prefix grid, a key collision). Cross-validating over basis
// sizes and λ therefore stops re-deriving identical factorizations for
// every sample and every parameter: the per-fit work shrinks to one Φᵀy
// product, and per λ one O(L·k) solve, one Φα product and the residual
// scan, each run for all of a group's curves at once (MapFits).
//
// The fit entries are bounded. A grid is admitted on its second
// sighting: a doorkeeper, as in TinyLFU (Einziger, Friedman & Manes,
// 2017), records each missed key in a bitset of doorkeeperBits bits
// indexed by the key's hash and clears it after doorkeeperReset
// recorded sightings, and a key it has not seen gets an entry built for
// its one group. A group — every curve of one FitDataset, Pipeline.Fit
// or Pipeline.Score call on one grid, or the one curve of a FitSample —
// looks each basis size up once and is one sighting, so a new grid is
// admitted by the second call that carries it, however many curves the
// first carried. So a one-off grid (a client that jitters its times)
// enters the cache only when its hash hits a bit another key set, while
// the training grid is resident from its second call on. At most
// fitCap entries are resident, and CLOCK (second chance) evicts: the
// hand walks the resident keys in admission order, clearing each
// reference bit it passes, and evicts the first entry whose bit is
// already clear. A hit sets its entry's bit only when the bit is clear,
// so steady hits leave the entry's cache line, which every fit on it
// reads, unwritten. An entry holds its grid, its ladder, its design and
// the default ladder's five λ factorizations with their hat diagonals:
// about 9–13 KB on a Fig. 3 grid (m = 85), and about 270 KB at
// stream.MaxPoints = 2048 points and the ladder's largest size there,
// L = 512 (measured). So the resident entries stay under about 35 MB. The
// shared penalties and the span designs are outside the cap: they are
// keyed by basis size and domain (the designs also by evaluation grid),
// and a fitted Pipeline fixes the domain and the evaluation grid, so
// they grow only with the basis sizes its curves' lengths select. A
// penalty keeps only its lower band, L·order floats (16 KB at L = 512),
// so all 509 sizes the ladder reaches up to 2048 points take about
// 4.2 MB.
//
// The cache also memoizes span-compact design matrices per (basis,
// grid, derivative), which CurveFit.EvalGrid uses to evaluate
// fitted curves and their derivatives without re-running the Cox–de
// Boor recursion per sample. Fit.EvalGrid hashes its grid once for
// all of a fit's parameters and looks a design up once per run of
// parameters on one basis.
//
// A BasisCache is safe for concurrent use; all cached values are pure
// functions of their keys, and every fit entry, resident or built for
// one fit, comes from one constructor, newFitEntry, so neither warming,
// admission nor eviction changes a result bit (see
// TestBasisCacheInvariance). Only
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
// its float bits plus its length; the entry keeps the grid and the λ
// ladder themselves and lookups verify both exactly, so a collision
// degrades to a cache bypass, never to a wrong matrix. newGridSystems
// looks every basis size of a grid up under one hash of it.
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

// entry returns the smoothing system of key on the grid ts for the
// ladder lambdas. A resident entry that holds this grid and ladder is a
// hit; another grid or ladder resident under the key is a collision.
// Anything else is a miss, and the entry comes from build, called
// outside the lock. It becomes resident (see BasisCache) only when
// admit is set, the key collides with no resident entry and the
// doorkeeper has already seen it; it is then built on copies of ts and
// lambdas, which the caller may go on to change. FitSample and MapFits
// offer their grids for admission; Incremental.Fit only looks its grid
// up, since a growing stream passes through a new prefix grid on every
// refit.
func (c *BasisCache) entry(key fitKey, ts, lambdas []float64, admit bool, build func(ts, lambdas []float64) *fitEntry) *fitEntry {
	c.mu.Lock()
	resident, collides := c.fits[key]
	if collides && resident.holds(ts, lambdas) {
		if !resident.ref {
			resident.ref = true
		}
		c.mu.Unlock()
		c.hits.Add(1)
		return resident
	}
	admit = admit && !collides && c.sightedLocked(key)
	c.mu.Unlock()
	c.misses.Add(1)
	if !admit {
		return build(ts, lambdas)
	}
	e := build(slices.Clone(ts), slices.Clone(lambdas))
	c.mu.Lock()
	defer c.mu.Unlock()
	// Fits that sight the key at once may each build its entry: the
	// first admits it, and the others take the resident one.
	switch resident, ok := c.fits[key]; {
	case !ok:
		c.admitLocked(key, e)
	case resident.holds(ts, lambdas):
		return resident
	}
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
	key := penaltyKey{dim: dim, order: order, q: q, lo: math.Float64bits(lo), hi: math.Float64bits(hi)}
	c.mu.Lock()
	defer c.mu.Unlock()
	pen, ok := c.penalties[key]
	if !ok {
		pen = new(penalty)
		c.penalties[key] = pen
	}
	return pen
}

// spanDesign returns the memoized compact design of the basis on ts,
// whose hash is tsHash, at the given derivative order, building it on
// first use. A key collision returns nil and the caller evaluates
// transiently.
func (c *BasisCache) spanDesign(b *bspline.BSpline, ts []float64, tsHash uint64, deriv int) *linalg.SpanMatrix {
	lo, hi := b.Domain()
	key := designKey{dim: b.Dim(), order: b.Order(), deriv: deriv, lo: lo, hi: hi, m: len(ts), tsHash: tsHash}
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

// fitEntry is the smoothing system of one basis size on one grid for
// one λ ladder, none of which depends on the fitted samples: the basis,
// the span-compact design Φ, and per λ the factor of ΦᵀΦ + λR with its
// hat diagonal, or else the error that rules the size out. newFitEntry
// builds it whole, and only its CLOCK bit changes afterwards, so fits
// on any number of goroutines read it without a lock.
type fitEntry struct {
	basis   bspline.Basis
	ts      []float64
	lambdas []float64
	phi     *linalg.SpanMatrix
	// factors holds one factorized system per λ of lambdas, in order.
	factors []lambdaFactor
	// err is the basis or penalty error that rules the size out; the
	// entry then holds no basis, design or factors.
	err error
	// ref is the entry's CLOCK reference bit, guarded by the cache's mu.
	ref bool
}

// holds reports whether e is the system of the grid ts and the ladder
// lambdas.
func (e *fitEntry) holds(ts, lambdas []float64) bool {
	return sameFloats(e.ts, ts) && sameFloats(e.lambdas, lambdas)
}

// penalty is one roughness penalty R, built once on first use and kept
// as its lower band in the Gram band's layout: L·(bandwidth+1) floats,
// L·order for a B-spline.
type penalty struct {
	once  sync.Once
	lower []float64
	err   error
}

// band returns the lower band of R, of bandwidth k, building it on the
// first call: bspline.PenaltyMatrix builds the dense R, with
// penaltyNodes' quadrature order, and its band is copied out. Off that
// band a B-spline penalty is exactly +0 (no two of its basis functions
// overlap there), so the band holds every value the assembly reads.
func (pen *penalty) band(basis bspline.Basis, q, k int) ([]float64, error) {
	pen.once.Do(func() {
		r, err := bspline.PenaltyMatrix(basis, q, penaltyNodes(basis, q))
		if err != nil {
			pen.err = err
			return
		}
		L := basis.Dim()
		pen.lower = make([]float64, L*(k+1))
		for i := 0; i < L; i++ {
			for j := max(0, i-k); j <= i; j++ {
				pen.lower[i*(k+1)+j-i+k] = r.At(i, j)
			}
		}
	})
	return pen.lower, pen.err
}

// penaltyNodes is the seed path's quadrature order for R: order − q
// Gauss–Legendre nodes per panel for a B-spline (exact), 8 otherwise.
func penaltyNodes(basis bspline.Basis, q int) int {
	if bs, ok := basis.(*bspline.BSpline); ok {
		return max(1, bs.Order()-q)
	}
	return 8
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

// newFitEntry builds the system of the basis of size dim on [lo, hi],
// from opt's factory, on the grid ts for the ladder lambdas, and keeps
// ts and lambdas. When any λ > 0 it reads the roughness penalty R from
// opt's cache, which keeps one per basis for every grid, or else builds
// its own; a basis or a penalty that cannot be built fails the whole
// size, as on the sequential seed path. A λ whose factorization fails
// even after the ridge retry, or whose hat diagonal is not finite, is
// skipped by every fit.
func newFitEntry(opt Options, dim int, lo, hi float64, ts, lambdas []float64) *fitEntry {
	e := &fitEntry{ts: ts, lambdas: lambdas}
	basis, err := opt.factory()(dim, lo, hi)
	if err != nil {
		e.err = err
		return e
	}
	L, k, q := basis.Dim(), bandwidth(basis), opt.penaltyDeriv()
	var r []float64
	if slices.ContainsFunc(lambdas, func(l float64) bool { return l > 0 }) {
		var pen *penalty
		if c := opt.basisCache(); c != nil {
			pen = c.penaltyFor(dim, opt.order(), q, lo, hi)
		} else {
			pen = new(penalty)
		}
		if r, err = pen.band(basis, q, k); err != nil {
			e.err = err
			return e
		}
	}
	// Each design row keeps only its k = order nonzero values, so the
	// Gram costs O(m·k²) instead of O(m·L²) and keeps only the band the
	// assembly reads; a custom basis keeps its full rows and the whole
	// lower triangle.
	phi := bspline.NewSpanDesign(basis, ts, 0)
	gram := make([]float64, L*(k+1))
	if err := phi.GramBandInto(k, gram); err != nil {
		panic(err) // the design's windows are order (or L) wide, within the band
	}
	e.basis, e.phi, e.factors = basis, phi, make([]lambdaFactor, len(lambdas))
	for i, lambda := range lambdas {
		lf := &e.factors[i]
		ch, err := factor(gram, r, k, lambda)
		if err != nil {
			lf.err = err
			continue
		}
		// Hat diagonal H_jj = φ(t_j)ᵀ (ΦᵀΦ + λR)⁻¹ φ(t_j), done once per
		// (basis, λ) instead of once per sample.
		hat := make([]float64, len(ts))
		if err := ch.HatDiag(phi, hat); err != nil {
			lf.err = err
			continue
		}
		if !finite(hat) {
			lf.err = fmt.Errorf("fda: hat diagonal for λ = %g is not finite: %w", lambda, ErrFit)
			continue
		}
		var trH float64
		for _, h := range hat {
			trH += h
		}
		*lf = lambdaFactor{solver: ch, hat: hat, trH: trH}
	}
	return e
}

// bandwidth is the band of ΦᵀΦ + λR for basis: order−1 for a B-spline,
// whose normal equations are banded by its local support, so the
// factorization and the hat diagonal run in O(L·k²) instead of O(L³);
// L−1, the whole lower triangle, for any other basis.
func bandwidth(basis bspline.Basis) int {
	if bs, ok := basis.(*bspline.BSpline); ok {
		return bs.Order() - 1
	}
	return basis.Dim() - 1
}

// factor assembles ΦᵀΦ + λR straight into band storage, from the lower
// bands of bandwidth k of ΦᵀΦ (gram) and of R (r, read only when
// λ > 0), and factors it in place, with the seed path's tiny-ridge
// retry on semi-definite systems.
func factor(gram, r []float64, k int, lambda float64) (*linalg.BandCholesky, error) {
	L := len(gram) / (k + 1)
	band := make([]float64, len(gram))
	peak := assemble(band, gram, r, k, lambda)
	ch, err := linalg.NewBandCholesky(L, k, band)
	if err == nil {
		return ch, nil
	}
	// Semi-definite system (e.g. λ = 0 with near-collinear columns); add
	// a tiny ridge and retry once.
	assemble(band, gram, r, k, lambda)
	eps := 1e-9 * (1 + peak)
	for i := 0; i < L; i++ {
		band[i*(k+1)+k] += eps
	}
	return linalg.NewBandCholesky(L, k, band)
}

// assemble writes the lower band of ΦᵀΦ + λR into band and returns its
// largest magnitude. That is the largest magnitude of the whole matrix:
// both terms are symmetric, and off the band of a B-spline system they
// are exact +0.
func assemble(band, gram, r []float64, k int, lambda float64) float64 {
	var peak float64
	for i := range len(band) / (k + 1) {
		gi, row := gram[i*(k+1):(i+1)*(k+1)], band[i*(k+1):(i+1)*(k+1)]
		for j := max(0, i-k); j <= i; j++ {
			v := gi[j-i+k]
			if lambda > 0 {
				v += lambda * r[i*(k+1)+j-i+k]
			}
			row[j-i+k] = v
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
	}
	return peak
}
