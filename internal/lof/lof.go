// Package lof implements the Local Outlier Factor (Breunig et al. 2000)
// and a k-nearest-neighbour distance detector. The paper applies iForest
// and OCSVM to the mapped data but frames the method as compatible with
// any "state-of-the-art outlier detection algorithm" on multivariate
// vectors; these two detectors feed the detector-ablation experiment.
package lof

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/linalg"
)

// Options configures the Local Outlier Factor and fits it: it is the
// LOF's detector.Spec.
type Options struct {
	// K is the neighbourhood size; 0 means min(20, n−1).
	K int
}

// LOF is a fitted Local Outlier Factor model, built by Options.Fit,
// that scores new points against the training density. Score and
// ScoreBatch only read the precomputed k-distances and densities
// (neighbour search allocates its own scratch), so a LOF is safe for
// concurrent scoring from multiple goroutines; the same holds for
// KNNDist.
type LOF struct {
	x [][]float64
	k int
	// kDist[i] is the distance from training point i to its k-th
	// neighbour; lrd[i] its local reachability density.
	kDist []float64
	lrd   []float64
}

// Name identifies the detector in reports.
func (l *LOF) Name() string { return "LOF" }

// neighbours returns the indices of the k nearest rows of x to q,
// excluding the row index skip (pass −1 to keep all), together with the
// distances, both sorted ascending by distance.
func neighbours(x [][]float64, q []float64, k, skip int) (idx []int, dist []float64) {
	type nd struct {
		i int
		d float64
	}
	all := make([]nd, 0, len(x))
	for i, xi := range x {
		if i == skip {
			continue
		}
		all = append(all, nd{i, linalg.Dist2(q, xi)})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
	if k > len(all) {
		k = len(all)
	}
	idx = make([]int, k)
	dist = make([]float64, k)
	for i := 0; i < k; i++ {
		idx[i] = all[i].i
		dist[i] = all[i].d
	}
	return idx, dist
}

// trainingSet checks that x holds at least n samples, all of one
// length.
func trainingSet(x [][]float64, n int) error {
	if len(x) < n {
		return fmt.Errorf("lof: need >= %d training samples, got %d", n, len(x))
	}
	for i, xi := range x {
		if len(xi) != len(x[0]) {
			return fmt.Errorf("lof: sample %d has %d features, want %d", i, len(xi), len(x[0]))
		}
	}
	return nil
}

// neighbourhood returns the neighbourhood size k, or 20 when k ≤ 0,
// capped at most.
func neighbourhood(k, most int) int {
	if k <= 0 {
		k = 20
	}
	return min(k, most)
}

// Fit memorises the training set, precomputes every training point's
// k-distance and local reachability density, and returns the *LOF.
func (opt Options) Fit(x [][]float64) (detector.Model, error) {
	if err := trainingSet(x, 2); err != nil {
		return nil, err
	}
	n := len(x)
	k := neighbourhood(opt.K, n-1)
	l := &LOF{x: x, k: k, kDist: make([]float64, n), lrd: make([]float64, n)}
	nbrIdx := make([][]int, n)
	nbrDist := make([][]float64, n)
	for i, xi := range x {
		idx, dist := neighbours(x, xi, k, i)
		nbrIdx[i] = idx
		nbrDist[i] = dist
		l.kDist[i] = dist[len(dist)-1]
	}
	for i := range x {
		var reach float64
		for j, nb := range nbrIdx[i] {
			reach += math.Max(nbrDist[i][j], l.kDist[nb])
		}
		if reach == 0 {
			// Duplicated points: infinite density, represented large.
			l.lrd[i] = math.Inf(1)
		} else {
			l.lrd[i] = float64(len(nbrIdx[i])) / reach
		}
	}
	return l, nil
}

// Score returns the LOF of xq against the training set: ≈1 for inliers,
// ≫1 for outliers. Higher means more outlying.
func (l *LOF) Score(xq []float64) (float64, error) {
	if len(xq) != len(l.x[0]) {
		return 0, fmt.Errorf("lof: query has %d features, want %d", len(xq), len(l.x[0]))
	}
	idx, dist := neighbours(l.x, xq, l.k, -1)
	var reach float64
	for j, nb := range idx {
		reach += math.Max(dist[j], l.kDist[nb])
	}
	if reach == 0 {
		return 1, nil // coincides with a dense cluster of training points
	}
	lrdQ := float64(len(idx)) / reach
	var ratio float64
	var count int
	for _, nb := range idx {
		if math.IsInf(l.lrd[nb], 1) {
			continue
		}
		ratio += l.lrd[nb] / lrdQ
		count++
	}
	if count == 0 {
		return 1, nil
	}
	return ratio / float64(count), nil
}

// ScoreBatch scores every row of x.
func (l *LOF) ScoreBatch(x [][]float64) ([]float64, error) { return scoreBatch(x, l.Score) }

// KNN configures the kNN-distance detector and fits it: it is
// KNNDist's detector.Spec.
type KNN struct {
	// K is the neighbourhood size; 0 means min(20, n).
	K int
}

// KNNDist scores a point by its mean distance to the k nearest training
// points — the simplest distance-based detector, a useful floor in
// ablations. KNN.Fit builds it.
type KNNDist struct {
	x [][]float64
	k int
}

// Name identifies the detector in reports.
func (d *KNNDist) Name() string { return "kNN" }

// Fit memorises the training set and returns the *KNNDist.
func (opt KNN) Fit(x [][]float64) (detector.Model, error) {
	if err := trainingSet(x, 1); err != nil {
		return nil, err
	}
	return &KNNDist{x: x, k: neighbourhood(opt.K, len(x))}, nil
}

// Score returns the mean distance from xq to its k nearest training
// points; higher means more outlying.
func (d *KNNDist) Score(xq []float64) (float64, error) {
	if len(xq) != len(d.x[0]) {
		return 0, fmt.Errorf("lof: query has %d features, want %d", len(xq), len(d.x[0]))
	}
	_, dist := neighbours(d.x, xq, d.k, -1)
	var s float64
	for _, v := range dist {
		s += v
	}
	return s / float64(len(dist)), nil
}

// ScoreBatch scores every row of x.
func (d *KNNDist) ScoreBatch(x [][]float64) ([]float64, error) { return scoreBatch(x, d.Score) }

// scoreBatch scores every row of x with score.
func scoreBatch(x [][]float64, score func([]float64) (float64, error)) ([]float64, error) {
	out := make([]float64, len(x))
	for i, xi := range x {
		s, err := score(xi)
		if err != nil {
			return nil, fmt.Errorf("lof: sample %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
