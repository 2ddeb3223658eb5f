package depth

import (
	"fmt"
	"sort"
)

// MFHD implements the multivariate functional halfspace depth of
// Claeskens, Hubert, Slaets & Vakili (JASA 2014) — reference [2] of the
// paper, the canonical "depth function extended to MFD" whose weaknesses
// Sec. 1.2 catalogues. At each grid point the Tukey halfspace depth of
// X_i(t) within the reference cloud is computed (approximated by the
// minimum one-sided fraction over projection directions, exact for
// p = 1), and the pointwise depths are integrated over the grid with
// uniform weights.
type MFHD struct {
	opt   ProjectionOptions
	dirs  [][]float64
	train [][][]float64
	// proj[j][d] holds the sorted projections of the training cloud at
	// grid point j onto direction d.
	proj [][][]float64
	p, m int
}

// NewMFHD returns an unfitted multivariate functional halfspace depth
// scorer.
func NewMFHD(opt ProjectionOptions) *MFHD { return &MFHD{opt: opt} }

// Fit precomputes sorted projections of the training cloud for every
// (grid point, direction) pair.
func (h *MFHD) Fit(train [][][]float64) error {
	if len(train) == 0 {
		return fmt.Errorf("depth: mfhd empty training set: %w", ErrNotFitted)
	}
	p := len(train[0])
	if p == 0 {
		return fmt.Errorf("depth: mfhd zero-parameter samples: %w", ErrDepth)
	}
	m := len(train[0][0])
	for i, s := range train {
		if len(s) != p {
			return fmt.Errorf("depth: mfhd sample %d has %d parameters, want %d: %w", i, len(s), p, ErrDepth)
		}
		for k := range s {
			if len(s[k]) != m {
				return fmt.Errorf("depth: mfhd sample %d parameter %d has %d points, want %d: %w", i, k, len(s[k]), m, ErrDepth)
			}
		}
	}
	h.dirs = directionSet(p, h.opt)
	h.train = train
	h.p = p
	h.m = m
	n := len(train)
	h.proj = make([][][]float64, m)
	for j := 0; j < m; j++ {
		h.proj[j] = make([][]float64, len(h.dirs))
		for d, u := range h.dirs {
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				var s float64
				for k := 0; k < p; k++ {
					s += u[k] * train[i][k][j]
				}
				vals[i] = s
			}
			sort.Float64s(vals)
			h.proj[j][d] = vals
		}
	}
	return nil
}

// pointDepth returns the approximate halfspace depth of the p-vector x at
// grid point j: the minimum over directions of the one-sided tail
// fraction min(#{proj ≤ v}, #{proj ≥ v})/n.
func (h *MFHD) pointDepth(x []float64, j int) float64 {
	n := len(h.train)
	min := 1.0
	for d, u := range h.dirs {
		var v float64
		for k := 0; k < h.p; k++ {
			v += u[k] * x[k]
		}
		sorted := h.proj[j][d]
		le := sort.SearchFloat64s(sorted, v) // #{proj < v} boundary
		// Count of projections <= v and >= v (ties on both sides).
		hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
		below := float64(hi) / float64(n)   // proj ≤ v
		above := float64(n-le) / float64(n) // proj ≥ v
		side := below
		if above < side {
			side = above
		}
		if side < min {
			min = side
		}
	}
	return min
}

// Score returns 1 − integrated halfspace depth scaled to [0, 1] (the
// maximal possible depth is 1/2, reached at the pointwise median), so
// higher means more outlying.
func (h *MFHD) Score(sample [][]float64) (float64, error) {
	if h.train == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != h.p {
		return 0, fmt.Errorf("depth: mfhd sample has %d parameters, want %d: %w", len(sample), h.p, ErrDepth)
	}
	x := make([]float64, h.p)
	var sum float64
	for j := 0; j < h.m; j++ {
		for k := 0; k < h.p; k++ {
			if len(sample[k]) != h.m {
				return 0, fmt.Errorf("depth: mfhd sample parameter %d has %d points, want %d: %w", k, len(sample[k]), h.m, ErrDepth)
			}
			x[k] = sample[k][j]
		}
		sum += h.pointDepth(x, j)
	}
	depth := sum / float64(h.m)
	return 1 - 2*depth, nil
}

// ScoreBatch scores every sample.
func (h *MFHD) ScoreBatch(samples [][][]float64) ([]float64, error) {
	out := make([]float64, len(samples))
	for i, s := range samples {
		v, err := h.Score(s)
		if err != nil {
			return nil, fmt.Errorf("depth: mfhd sample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
