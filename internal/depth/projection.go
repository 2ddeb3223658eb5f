// Package depth implements the statistical-depth baselines the paper
// compares against (Sec. 1.2 and 4): the Stahel–Donoho / projection
// outlyingness (Zuo 2003), the directional outlyingness decomposition of
// Dai & Genton (2019) ("Dir.out"), the angle-based FUNTA pseudo-depth of
// Kuhnt & Rehage (2016), and the integral / infimum aggregations of
// pointwise depths whose weaknesses motivate the paper (issues (1)–(3)).
//
// All functional scorers consume MFD samples discretised on a common grid
// as p×m matrices and return outlyingness scores where higher = more
// outlying, the convention shared by the detector layer. Each scorer is
// a fitted value: a Fit… function checks the training set and returns
// it, and it has no method that changes it afterwards, so there is no
// unfitted scorer to call.
package depth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// ErrDepth reports invalid input to a depth computation.
var ErrDepth = errors.New("depth: invalid input")

// shape is the common grid of a fitted training set: p parameters of m
// points each.
type shape struct{ p, m int }

// trainShape checks that train holds at least minN ≥ 1 samples, all of
// the same p ≥ 1 parameters of the same m ≥ minM points, and returns
// that shape. Every Fit… function calls it before it reads train, so no
// scorer is built on a ragged, zero-parameter or too-small training set.
func trainShape(train [][][]float64, minN, minM int) (shape, error) {
	if len(train) < minN {
		return shape{}, fmt.Errorf("depth: need >= %d training samples, got %d: %w", minN, len(train), ErrDepth)
	}
	s := shape{p: len(train[0])}
	if s.p == 0 {
		return shape{}, fmt.Errorf("depth: zero-parameter training samples: %w", ErrDepth)
	}
	if s.m = len(train[0][0]); s.m < minM {
		return shape{}, fmt.Errorf("depth: need >= %d grid points, got %d: %w", minM, s.m, ErrDepth)
	}
	for i, x := range train {
		if err := s.check(x); err != nil {
			return shape{}, fmt.Errorf("depth: training sample %d: %w", i, err)
		}
	}
	return s, nil
}

// check reports a sample whose shape is not s.
func (s shape) check(sample [][]float64) error {
	if len(sample) != s.p {
		return fmt.Errorf("depth: sample has %d parameters, want %d: %w", len(sample), s.p, ErrDepth)
	}
	for k, row := range sample {
		if len(row) != s.m {
			return fmt.Errorf("depth: sample parameter %d has %d points, want %d: %w", k, len(row), s.m, ErrDepth)
		}
	}
	return nil
}

// scoreBatch scores every sample with score on the shared bounded pool.
// The scorers' Score methods only read their fitted reference, so the
// scores are bitwise those of a sequential loop, and on failure the
// lowest-index sample's error is returned.
func scoreBatch(samples [][][]float64, score func([][]float64) (float64, error)) ([]float64, error) {
	return parallel.Map(len(samples), 0, func(i int) (float64, error) {
		v, err := score(samples[i])
		if err != nil {
			return 0, fmt.Errorf("depth: sample %d: %w", i, err)
		}
		return v, nil
	})
}

// ProjectionOptions configures the random-direction approximation of the
// Stahel–Donoho outlyingness for p > 1.
type ProjectionOptions struct {
	// Directions is the number of random unit directions; 0 means 50.
	// Coordinate axes are always included as well.
	Directions int
	// Seed drives the direction draw.
	Seed int64
}

// directionSet returns K random unit vectors in R^p plus the p coordinate
// axes, so the p = 1 exact case and axis-aligned outliers are always
// covered.
func directionSet(p int, opt ProjectionOptions) [][]float64 {
	k := opt.Directions
	if k <= 0 {
		k = 50
	}
	if p == 1 {
		return [][]float64{{1}}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	dirs := make([][]float64, 0, k+p)
	for i := 0; i < p; i++ {
		axis := make([]float64, p)
		axis[i] = 1
		dirs = append(dirs, axis)
	}
	for len(dirs) < k+p {
		u := make([]float64, p)
		var norm float64
		for i := range u {
			u[i] = rng.NormFloat64()
			norm += u[i] * u[i]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue
		}
		for i := range u {
			u[i] /= norm
		}
		dirs = append(dirs, u)
	}
	return dirs
}

// pointwiseReference holds, for one grid point, the per-direction medians
// and MADs of the training cloud plus its coordinate-wise median (the
// center Z(t) used by Dir.out's direction vector).
type pointwiseReference struct {
	med    []float64 // per direction
	mad    []float64 // per direction
	center []float64 // coordinate-wise median, length p
}

// buildReference projects the training cloud {X_i(t_j)} of shape s at
// each grid point onto every direction and records robust
// location/scale. train has passed trainShape.
func buildReference(train [][][]float64, s shape, dirs [][]float64) []pointwiseReference {
	n, p, m := len(train), s.p, s.m
	refs := make([]pointwiseReference, m)
	proj := make([]float64, n)
	coord := make([]float64, n)
	for j := 0; j < m; j++ {
		ref := pointwiseReference{
			med:    make([]float64, len(dirs)),
			mad:    make([]float64, len(dirs)),
			center: make([]float64, p),
		}
		for k := 0; k < p; k++ {
			for i := 0; i < n; i++ {
				coord[i] = train[i][k][j]
			}
			ref.center[k] = stats.Median(coord)
		}
		for d, u := range dirs {
			for i := 0; i < n; i++ {
				var s float64
				for k := 0; k < p; k++ {
					s += u[k] * train[i][k][j]
				}
				proj[i] = s
			}
			ref.med[d] = stats.Median(proj)
			ref.mad[d] = stats.MAD(proj)
		}
		refs[j] = ref
	}
	return refs
}

// sdoAt returns the Stahel–Donoho outlyingness of the p-vector x against
// the reference at one grid point: max over directions of
// |uᵀx − med| / MAD. Directions with vanishing MAD are skipped unless the
// point deviates there, in which case the outlyingness is effectively
// unbounded and a large sentinel is returned.
func sdoAt(x []float64, ref pointwiseReference, dirs [][]float64) float64 {
	const sentinel = 1e12
	var mx float64
	for d, u := range dirs {
		var s float64
		for k, uk := range u {
			s += uk * x[k]
		}
		dev := math.Abs(s - ref.med[d])
		if ref.mad[d] < 1e-12 {
			if dev > 1e-9 {
				return sentinel
			}
			continue
		}
		if v := dev / ref.mad[d]; v > mx {
			mx = v
		}
	}
	return mx
}

// SDO computes the Stahel–Donoho outlyingness of every row of points
// (each a p-vector) against the cloud itself — the building block used in
// tests and by the pointwise depth aggregations.
func SDO(points [][]float64, opt ProjectionOptions) ([]float64, error) {
	// Reuse the functional machinery with m = 1 grid point.
	train := make([][][]float64, len(points))
	for i, pt := range points {
		s := make([][]float64, len(pt))
		for k := range pt {
			s[k] = []float64{pt[k]}
		}
		train[i] = s
	}
	sh, err := trainShape(train, 1, 1)
	if err != nil {
		return nil, err
	}
	dirs := directionSet(sh.p, opt)
	refs := buildReference(train, sh, dirs)
	out := make([]float64, len(points))
	for i, pt := range points {
		out[i] = sdoAt(pt, refs[0], dirs)
	}
	return out, nil
}

// ProjectionDepth converts an SDO value to the projection depth
// PD = 1/(1 + SDO) ∈ (0, 1].
func ProjectionDepth(sdo float64) float64 { return 1 / (1 + sdo) }
