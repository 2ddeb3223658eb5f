// Package core assembles the paper's method end to end: smooth the raw
// multivariate functional data with a penalized basis expansion (Sec. 2),
// map each fitted sample to a univariate geometric representation such as
// the curvature (Sec. 3), and hand the mapped vectors to a multivariate
// outlier detector (Sec. 4.2). The Pipeline type is the library's primary
// public API; package eval adapters and the future-work ensemble of
// Sec. 5 live here too.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/geometry"
)

// ErrPipeline reports a mis-configured or unfitted pipeline.
var ErrPipeline = errors.New("core: invalid pipeline state")

// FaultScore is the fault-injection point hit at the top of Score and
// ScorePartialFit. Chaos tests arm it (see internal/faultinject) to
// simulate a detector that errors or panics mid-request.
const FaultScore = "core.pipeline.score"

// Detector is the fitted multivariate outlier detector that ends a
// pipeline: batch scoring where higher = more outlying. The fitted
// models of internal/iforest, internal/ocsvm and internal/lof are
// Detectors, and their specs (detector.Spec) train them.
type Detector = detector.Model

// Pipeline is the paper's method: Smooth → Map → Detect. Configure it,
// call Fit with a (possibly contaminated, unlabeled) training dataset,
// then Score held-out samples. The zero value is not usable: Mapping and
// DetectorSpec are required to fit.
//
// Concurrency: Fit must complete before any scoring and must not run
// concurrently with it. After Fit returns, Score, ScoreOne, Explain and
// Grid only read pipeline state — the one exception being the internal
// basis cache, which is mutex-protected and memoizes pure functions of
// its keys — so a single fitted Pipeline is safe for concurrent use by
// multiple goroutines, provided the Mapping's Map is read-only, which
// holds for every geometry mapping. The Detector is read-only by type:
// it is a fitted model, which has no Fit. internal/serve relies on this
// guarantee to score HTTP requests from a shared model registry.
type Pipeline struct {
	// Smooth configures the functional approximation of Sec. 2. The zero
	// value selects the paper's defaults (cubic B-splines, LOOCV).
	Smooth fda.Options
	// Mapping is the geometric aggregation of Sec. 3 (e.g.
	// geometry.Curvature{}).
	Mapping geometry.Mapping
	// DetectorSpec is the terminal outlier-detection algorithm, which
	// Fit trains on the mapped training set into Detector. A loaded
	// pipeline has none, so it cannot be refit.
	DetectorSpec detector.Spec
	// Detector is the fitted detector, set by Fit or LoadPipelineJSON.
	Detector Detector
	// GridSize is the length of the common evaluation grid the paper
	// evaluates X̃ on; 0 means the maximum sample length in the training
	// set (the paper keeps m = 85).
	GridSize int
	// Standardize z-scores every mapped feature using training statistics
	// before the detector sees them; recommended for OCSVM.
	Standardize bool
	// Parallel bounds the worker pool smoothing and mapping fan out
	// over: 0 means GOMAXPROCS, 1 runs sequentially. Results are
	// written back by sample index, so scores are bitwise identical for
	// every setting; internal/serve pins it to 1 because request
	// concurrency already comes from the serving pool.
	Parallel int

	fitted    bool
	gridLo    float64
	gridHi    float64
	grid      []float64
	featMean  []float64
	featScale []float64
	// cache memoizes the smoother's design/penalty/factorization linear
	// algebra across samples and across Score calls; created at Fit (or
	// load) time and internally synchronized.
	cache *fda.BasisCache
}

// Validate checks the configuration without fitting.
func (p *Pipeline) Validate() error {
	if p.Mapping == nil {
		return fmt.Errorf("core: pipeline needs a mapping: %w", ErrPipeline)
	}
	if p.DetectorSpec == nil {
		return fmt.Errorf("core: pipeline needs a detector spec (a loaded pipeline cannot be refit): %w", ErrPipeline)
	}
	return nil
}

// Fit smooths the training samples, maps them and trains the detector.
// Labels on the dataset are ignored: fitting is unsupervised (Sec. 4.2).
func (p *Pipeline) Fit(train fda.Dataset) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := train.Validate(); err != nil {
		return err
	}
	if dim := train.Samples[0].Dim(); dim < p.Mapping.MinDim() {
		return fmt.Errorf("core: mapping %s needs p >= %d, data has %d: %w",
			p.Mapping.Name(), p.Mapping.MinDim(), dim, ErrPipeline)
	}
	p.gridLo, p.gridHi = train.Domain()
	gridSize := p.GridSize
	if gridSize == 0 {
		for _, s := range train.Samples {
			if s.Len() > gridSize {
				gridSize = s.Len()
			}
		}
	}
	p.grid = fda.UniformGrid(p.gridLo, p.gridHi, gridSize)
	if p.cache == nil && !p.Smooth.NoCache {
		p.cache = fda.NewBasisCache()
	}
	feats, err := p.features(train)
	if err != nil {
		return err
	}
	// Checked before standardizing too, so the error names the sample
	// whose mapping failed rather than every row its statistics spoil.
	if err := finiteFeatures(feats); err != nil {
		return err
	}
	if p.Standardize {
		p.featMean, p.featScale = featureStats(feats)
		if err := p.standardize(feats, 0, len(p.grid)-1); err != nil {
			return err
		}
		if err := finiteFeatures(feats); err != nil {
			return err
		}
	} else {
		p.featMean, p.featScale = nil, nil
	}
	det, err := p.DetectorSpec.Fit(feats)
	if err != nil {
		return fmt.Errorf("core: detector fit: %w", err)
	}
	p.Detector = det
	p.fitted = true
	return nil
}

// features smooths and maps every sample of d on the pipeline grid,
// sharing the pipeline's basis cache across samples and calls. d must
// be valid: Fit and Score check it first. The fits go through
// fda.MapFits, which fits the samples on each grid together in blocks
// over the pipeline's worker pool, and each block's samples are mapped
// as soon as the block is fit. Each row is written back by sample index
// and its arithmetic does not depend on grouping or scheduling, so the
// result is bitwise identical for every worker count; on error the
// lowest-index sample's error is returned.
func (p *Pipeline) features(d fda.Dataset) ([][]float64, error) {
	opt := p.smoothOptions()
	opt.Parallel = p.Parallel
	return fda.MapFits(d, opt, func(i int, fit *fda.Fit, err error) ([]float64, error) {
		if err != nil {
			return nil, fmt.Errorf("core: sample %d: smoothing: %w", i, err)
		}
		row, err := p.Mapping.Map(fit, p.grid)
		if err != nil {
			return nil, fmt.Errorf("core: sample %d: mapping: %w", i, err)
		}
		return row, nil
	})
}

// smoothOptions resolves the effective smoothing options for scoring:
// the fitted grid domain and the shared cache.
func (p *Pipeline) smoothOptions() fda.Options {
	opt := p.Smooth
	if !opt.HasDomain() {
		opt.Lo, opt.Hi = p.gridLo, p.gridHi
	}
	if opt.Cache == nil {
		opt.Cache = p.cache
	}
	return opt
}

// Score smooths, maps and scores held-out samples with the fitted
// detector. Higher scores are more outlying.
func (p *Pipeline) Score(test fda.Dataset) ([]float64, error) {
	if !p.fitted {
		return nil, fmt.Errorf("core: pipeline not fitted: %w", ErrPipeline)
	}
	if err := faultinject.Hit(FaultScore); err != nil {
		return nil, err
	}
	if err := test.Validate(); err != nil {
		return nil, err
	}
	feats, err := p.features(test)
	if err != nil {
		return nil, err
	}
	return p.detect(feats, 0, len(p.grid)-1)
}

// ScoreOne scores a single held-out sample: Score of a one-sample
// dataset, so it equals the matching row of Score by construction.
func (p *Pipeline) ScoreOne(s fda.Sample) (float64, error) {
	scores, err := p.Score(fda.Dataset{Samples: []fda.Sample{s}})
	if err != nil {
		return 0, err
	}
	return scores[0], nil
}

// detect is the step every scoring path ends in: standardize the
// feature rows with the training statistics, pinning features outside
// the observed grid window [from, to] to the training mean (see
// standardize), then score them with the detector. A non-finite
// feature fails with geometry.ErrMapping instead of reaching it.
func (p *Pipeline) detect(feats [][]float64, from, to int) ([]float64, error) {
	if p.featMean != nil {
		if err := p.standardize(feats, from, to); err != nil {
			return nil, err
		}
	}
	if err := finiteFeatures(feats); err != nil {
		return nil, err
	}
	scores, err := p.Detector.ScoreBatch(feats)
	if err != nil {
		return nil, fmt.Errorf("core: detector score: %w", err)
	}
	return scores, nil
}

// standardize z-scores feature rows in place with the training
// statistics and pins every feature whose grid index lies outside
// [from, to] to the training mean, zero in standardized space. A
// feature's grid index is its position modulo the grid length: raw and
// stacked mappings emit one block of features per pass over the grid.
func (p *Pipeline) standardize(feats [][]float64, from, to int) error {
	for _, row := range feats {
		if len(row) != len(p.featMean) {
			return fmt.Errorf("core: feature length %d, trained %d: %w", len(row), len(p.featMean), ErrPipeline)
		}
		for j := range row {
			if g := j % len(p.grid); g >= from && g <= to {
				row[j] = (row[j] - p.featMean[j]) / p.featScale[j]
			} else {
				row[j] = 0
			}
		}
	}
	return nil
}

// Grid returns the common evaluation grid chosen at Fit time.
func (p *Pipeline) Grid() []float64 {
	out := make([]float64, len(p.grid))
	copy(out, p.grid)
	return out
}

// Domain returns the basis domain chosen at Fit time.
func (p *Pipeline) Domain() (lo, hi float64) {
	return p.gridLo, p.gridHi
}

// CacheStats returns the counters of the basis cache the pipeline's
// fits share (zero when it has none).
func (p *Pipeline) CacheStats() fda.CacheStats {
	c := p.smoothOptions().Cache
	if c == nil {
		return fda.CacheStats{}
	}
	return c.Stats()
}

// NewIncremental starts an empty incremental fitter bound to this
// pipeline's smoothing options and fixed training domain, for streams
// that accumulate one observation at a time (internal/stream). The
// fitter is not itself concurrent-safe; the pipeline stays read-only.
func (p *Pipeline) NewIncremental(dim int) (*fda.Incremental, error) {
	if !p.fitted {
		return nil, fmt.Errorf("core: pipeline not fitted: %w", ErrPipeline)
	}
	if dim < p.Mapping.MinDim() {
		return nil, fmt.Errorf("core: mapping %s needs p >= %d parameters, stream has %d: %w",
			p.Mapping.Name(), p.Mapping.MinDim(), dim, ErrPipeline)
	}
	return fda.NewIncremental(dim, p.smoothOptions())
}

// ScorePartialFit scores a partially observed curve fitted over the
// sub-domain [lo, hi] of the training domain: the early-warning path of
// internal/stream. The fit is mapped on the full training grid exactly
// like a complete curve; grid features outside the observed sub-domain
// are then pinned to the training mean (zero in standardized space), so
// the detector judges only what has actually been seen and the score
// widens smoothly as data lands. It returns the score plus the
// inclusive grid-index window [gridFrom, gridTo] the features were kept
// on. It ends in the same detect step as Score, so once the sub-domain
// covers the grid the score equals ScoreOne's bit for bit. Requires
// Standardize: without training statistics there is no mean-neutral
// masking value.
func (p *Pipeline) ScorePartialFit(fit *fda.Fit, lo, hi float64) (score float64, gridFrom, gridTo int, err error) {
	if !p.fitted {
		return 0, 0, 0, fmt.Errorf("core: pipeline not fitted: %w", ErrPipeline)
	}
	if p.featMean == nil {
		return 0, 0, 0, fmt.Errorf("core: partial scoring requires a Standardize-fitted pipeline: %w", ErrPipeline)
	}
	if err := faultinject.Hit(FaultScore); err != nil {
		return 0, 0, 0, err
	}
	if !(lo <= hi) {
		return 0, 0, 0, fmt.Errorf("core: empty sub-domain [%g, %g]: %w", lo, hi, ErrPipeline)
	}
	feat, err := p.Mapping.Map(fit, p.grid)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: mapping: %w", err)
	}
	// gridFrom is the first grid point >= lo, gridTo the last <= hi;
	// sort.Search keeps the boundary logic free of exact float
	// comparisons.
	gridFrom = sort.Search(len(p.grid), func(i int) bool { return !(p.grid[i] < lo) })
	gridTo = sort.Search(len(p.grid), func(i int) bool { return p.grid[i] > hi }) - 1
	scores, err := p.detect([][]float64{feat}, gridFrom, gridTo)
	if err != nil {
		return 0, 0, 0, err
	}
	return scores[0], gridFrom, gridTo, nil
}

// finiteFeatures fails on the first non-finite feature: a curve the
// mapping cannot represent in floating point (a curvature that
// overflows at extreme scale) gets a typed error, never a score.
func finiteFeatures(feats [][]float64) error {
	for i, row := range feats {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: sample %d: feature %d is %g: %w", i, j, v, geometry.ErrMapping)
			}
		}
	}
	return nil
}

// featureStats returns per-column means and scales (standard deviation,
// floored to 1 when degenerate) over the feature rows.
func featureStats(x [][]float64) (mean, scale []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	d := len(x[0])
	mean = make([]float64, d)
	scale = make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for _, row := range x {
		for j, v := range row {
			diff := v - mean[j]
			scale[j] += diff * diff
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / float64(n))
		if scale[j] < 1e-12 {
			scale[j] = 1
		}
	}
	return mean, scale
}
