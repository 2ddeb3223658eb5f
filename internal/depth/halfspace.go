package depth

import "sort"

// MFHD implements the multivariate functional halfspace depth of
// Claeskens, Hubert, Slaets & Vakili (JASA 2014) — reference [2] of the
// paper, the canonical "depth function extended to MFD" whose weaknesses
// Sec. 1.2 catalogues. At each grid point the Tukey halfspace depth of
// X_i(t) within the reference cloud is computed (approximated by the
// minimum one-sided fraction over projection directions, exact for
// p = 1), and the pointwise depths are integrated over the grid with
// uniform weights.
type MFHD struct {
	shape
	n    int
	dirs [][]float64
	// proj[j][d] holds the sorted projections of the training cloud at
	// grid point j onto direction d.
	proj [][][]float64
}

// FitMFHD precomputes sorted projections of the training cloud train
// (n × p × m) for every (grid point, direction) pair.
func FitMFHD(train [][][]float64, opt ProjectionOptions) (*MFHD, error) {
	s, err := trainShape(train, 1, 1)
	if err != nil {
		return nil, err
	}
	h := &MFHD{shape: s, n: len(train), dirs: directionSet(s.p, opt)}
	h.proj = make([][][]float64, s.m)
	for j := 0; j < s.m; j++ {
		h.proj[j] = make([][]float64, len(h.dirs))
		for d, u := range h.dirs {
			vals := make([]float64, h.n)
			for i := 0; i < h.n; i++ {
				var v float64
				for k := 0; k < s.p; k++ {
					v += u[k] * train[i][k][j]
				}
				vals[i] = v
			}
			sort.Float64s(vals)
			h.proj[j][d] = vals
		}
	}
	return h, nil
}

// pointDepth returns the approximate halfspace depth of the p-vector x at
// grid point j: the minimum over directions of the one-sided tail
// fraction min(#{proj ≤ v}, #{proj ≥ v})/n.
func (h *MFHD) pointDepth(x []float64, j int) float64 {
	n := h.n
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
	if err := h.check(sample); err != nil {
		return 0, err
	}
	x := make([]float64, h.p)
	var sum float64
	for j := 0; j < h.m; j++ {
		for k := 0; k < h.p; k++ {
			x[k] = sample[k][j]
		}
		sum += h.pointDepth(x, j)
	}
	depth := sum / float64(h.m)
	return 1 - 2*depth, nil
}

// ScoreBatch scores every sample.
func (h *MFHD) ScoreBatch(samples [][][]float64) ([]float64, error) {
	return scoreBatch(samples, h.Score)
}
