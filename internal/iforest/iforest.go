// Package iforest implements the Isolation Forest outlier detector of
// Liu, Ting and Zhou (ICDM 2008), one of the two multivariate detectors
// the paper applies to the curvature-mapped functional data (Sec. 3–4).
//
// An isolation tree recursively splits a subsample with uniformly random
// axis-aligned cuts; outliers are isolated in few splits, so their average
// path length across trees is short. The anomaly score 2^(−E[h(x)]/c(ψ))
// lies in (0, 1) and grows with outlyingness.
package iforest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detector"
	"repro/internal/parallel"
)

// Options configures a forest and grows it: it is the forest's
// detector.Spec. The zero value selects the paper's defaults from Liu
// et al.: 100 trees on subsamples of 256 points.
type Options struct {
	// Trees is the ensemble size; 0 means 100.
	Trees int
	// SampleSize is the subsample ψ per tree; 0 means min(256, n).
	SampleSize int
	// Seed drives all randomness; the forest is deterministic given Seed.
	Seed int64
	// MaxDepth caps tree height; 0 means ceil(log2 ψ), the paper's value.
	MaxDepth int
}

// node is one node of a flat, pointer-free forest. An internal node
// splits on feature attr at value; its two children sit side by side,
// the left one (x[attr] < value) at child and the right one at child+1.
// A leaf has attr −1, holds its c(size) path adjustment in value and its
// training-point count in child.
type node struct {
	value float64
	attr  int32
	child int32
}

func leaf(size int) node {
	return node{value: averagePathLength(size), attr: -1, child: int32(size)}
}

// Forest is a fitted isolation forest, grown by Options.Fit or read by
// ReadJSON; it has no way to be refit.
//
// The whole ensemble is one []node; roots[t] indexes the root of tree
// t. All randomness is consumed at Fit time; Score, ScoreBatch and the
// tree walk they share only read the fitted ensemble, so a Forest is
// safe for concurrent scoring from multiple goroutines.
type Forest struct {
	nodes []node
	roots []int32
	dim   int
	cPsi  float64
}

// New returns opt, the spec of a forest with those options.
func New(opt Options) Options { return opt }

// Name identifies the detector in reports.
func (f *Forest) Name() string { return "iFor" }

// averagePathLength is c(n): the expected path length of an unsuccessful
// BST search among n points, used to normalise depths.
func averagePathLength(n int) float64 {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	default:
		h := math.Log(float64(n-1)) + 0.5772156649015329 // harmonic number approximation
		return 2*h - 2*float64(n-1)/float64(n)
	}
}

// Fit grows a forest on the feature vectors x (n samples, equal
// lengths) and returns it, a *Forest. It is the unsupervised training
// step of Sec. 4.2.
func (opt Options) Fit(x [][]float64) (detector.Model, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("iforest: empty training set")
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, errors.New("iforest: zero-length feature vectors")
	}
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("iforest: sample %d has %d features, want %d", i, len(xi), dim)
		}
	}
	trees := opt.Trees
	if trees == 0 {
		trees = 100
	}
	psi := opt.SampleSize
	if psi <= 0 || psi > n {
		psi = 256
		if psi > n {
			psi = n
		}
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = int(math.Ceil(math.Log2(float64(psi))))
		if maxDepth < 1 {
			maxDepth = 1
		}
	}
	if int64(trees)*(2*int64(psi)-1) > math.MaxInt32 {
		return nil, fmt.Errorf("iforest: %d trees of subsample %d exceed the node index range", trees, psi)
	}
	g := grower{x: x, maxDepth: maxDepth, rng: rand.New(rand.NewSource(opt.Seed))}
	f := &Forest{roots: make([]int32, trees), dim: dim, cPsi: averagePathLength(psi)}
	if f.cPsi == 0 {
		f.cPsi = 1
	}
	idxBuf := make([]int, n)
	for i := range idxBuf {
		idxBuf[i] = i
	}
	for t := range f.roots {
		// Subsample ψ indices without replacement.
		g.rng.Shuffle(n, func(i, j int) { idxBuf[i], idxBuf[j] = idxBuf[j], idxBuf[i] })
		sub := make([]int, psi)
		copy(sub, idxBuf[:psi])
		f.roots[t] = int32(len(g.nodes))
		g.nodes = append(g.nodes, node{})
		g.grow(int(f.roots[t]), sub, 0)
	}
	// Keep an exact-size copy: the forest lives as long as the model,
	// and append's growth slack would stay resident with it.
	f.nodes = append(make([]node, 0, len(g.nodes)), g.nodes...)
	return f, nil
}

// grower grows isolation trees depth first into one node slice.
type grower struct {
	x        [][]float64
	maxDepth int
	rng      *rand.Rand
	nodes    []node
}

// grow fills nodes[at] with the tree over the training rows idx. A split
// reserves both child slots before either subtree grows, so siblings are
// adjacent; the random draws come in the same order as a recursive
// left-then-right construction.
func (g *grower) grow(at int, idx []int, depth int) {
	if len(idx) <= 1 || depth >= g.maxDepth {
		g.nodes[at] = leaf(len(idx))
		return
	}
	dim := len(g.x[0])
	// Pick a random attribute with spread; give up after a few draws if
	// the subsample is constant (then the node becomes a leaf).
	for attempt := 0; attempt < dim; attempt++ {
		attr := g.rng.Intn(dim)
		lo, hi := g.x[idx[0]][attr], g.x[idx[0]][attr]
		for _, i := range idx[1:] {
			v := g.x[i][attr]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		split := lo + g.rng.Float64()*(hi-lo)
		var left, right []int
		for _, i := range idx {
			if g.x[i][attr] < split {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			// Degenerate cut (can happen when split == lo); retry.
			continue
		}
		child := len(g.nodes)
		g.nodes = append(g.nodes, node{}, node{})
		g.nodes[at] = node{value: split, attr: int32(attr), child: int32(child)}
		g.grow(child, left, depth+1)
		g.grow(child+1, right, depth+1)
		return
	}
	g.nodes[at] = leaf(len(idx))
}

// Score returns the anomaly score of xq in (0, 1); higher means more
// outlying. It returns an error if the feature length disagrees with
// training.
func (f *Forest) Score(xq []float64) (float64, error) {
	if len(xq) != f.dim {
		return 0, fmt.Errorf("iforest: query has %d features, want %d", len(xq), f.dim)
	}
	nodes, roots := f.nodes, f.roots
	var sum float64
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		// Four walks interleaved, so their node loads overlap. A walker
		// on a leaf stays put until all four have reached one.
		a, b, c, d := walker(roots[t]), walker(roots[t+1]), walker(roots[t+2]), walker(roots[t+3])
		for nodes[a.at()].attr&nodes[b.at()].attr&nodes[c.at()].attr&nodes[d.at()].attr >= 0 {
			a, b, c, d = a.step(nodes, xq), b.step(nodes, xq), c.step(nodes, xq), d.step(nodes, xq)
		}
		sum += a.length(nodes)
		sum += b.length(nodes)
		sum += c.length(nodes)
		sum += d.length(nodes)
	}
	for ; t < len(roots); t++ {
		w := walker(roots[t])
		for nodes[w.at()].attr >= 0 {
			w = w.step(nodes, xq)
		}
		sum += w.length(nodes)
	}
	mean := sum / float64(len(roots))
	return math.Pow(2, -mean/f.cPsi), nil
}

// walker is one walk down a tree packed in a register: the current node
// index in the low 32 bits, the number of levels descended above them.
type walker int64

func (w walker) at() int32 { return int32(w) }

// length is the walk's depth plus the c(size) adjustment of the leaf
// it stands on (Liu et al.).
func (w walker) length(nodes []node) float64 {
	return float64(int32(w>>32)) + nodes[w.at()].value
}

// step moves the walker one level down — to the left child when
// xq[attr] < value, else (NaN included) to the right — and counts the
// level, by adding 1<<32 + (next − at). It has no data-dependent
// branch: on a leaf the mask zeroes the increment and the walker stays.
func (w walker) step(nodes []node, xq []float64) walker {
	nd := &nodes[w.at()]
	leafMask := nd.attr >> 31 // −1 on a leaf, 0 on an internal node
	next := nd.child + 1 - b2i(xq[nd.attr&^leafMask] < nd.value)
	return w + (1<<32+walker(next-w.at()))&^walker(leafMask)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// ScoreBatch scores every row of x.
func (f *Forest) ScoreBatch(x [][]float64) ([]float64, error) {
	// Rows fan out over the shared bounded pool: Score only reads the
	// fitted trees, so the output (and the surfaced error) is identical
	// to the sequential loop.
	return parallel.Map(len(x), 0, func(i int) (float64, error) {
		s, err := f.Score(x[i])
		if err != nil {
			return 0, fmt.Errorf("iforest: sample %d: %w", i, err)
		}
		return s, nil
	})
}
