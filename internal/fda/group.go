package fda

import (
	"sync"

	"repro/internal/parallel"
)

// blockColumns is about how many parameter rows one block fits at
// once: enough that the band solves' chains of divisions overlap, few
// enough that a block's scratch and fits stay small until it is mapped.
const blockColumns = 32

// MapFits fits every sample of d and passes each result to fn: the fit,
// or the error that kept the sample from one. It returns fn's values in
// sample order, or the error fn returned for the lowest-index sample.
// The samples must be valid (Dataset.Validate); MapFits does not check
// them again.
//
// Samples whose grids have the same bits form one group: the group's
// smoothing systems are looked up in the cache once (one sighting per
// basis size, see BasisCache), and its parameter rows are fit together
// by fitColumns, in blocks of about blockColumns rows fanned out over
// Options.Parallel workers (0 means GOMAXPROCS). fn runs
// on each block's samples as soon as the block is fit, so a block's
// fits can be dropped before the next is made. With Options.NoCache
// every sample is a group of its own and builds its own systems. The
// result does not depend on the grouping or the worker count: every
// fit is bitwise FitSample's.
func MapFits[T any](d Dataset, opt Options, fn func(i int, fit *Fit, err error) (T, error)) ([]T, error) {
	return mapFits(d, opt, blockColumns, fn)
}

// mapFits is MapFits with blocks of about width parameter rows.
func mapFits[T any](d Dataset, opt Options, width int, fn func(i int, fit *Fit, err error) (T, error)) ([]T, error) {
	blocks := planBlocks(d.Samples, opt.NoCache, width)
	cache := opt.basisCache()
	res, err := parallel.Map(len(blocks), opt.Parallel, func(bi int) ([]mapped[T], error) {
		b := &blocks[bi]
		g := b.grid.systems(opt)
		var cols []column
		if g.err == nil {
			ys := d.Samples[b.samples[0]].Values
			if len(b.samples) > 1 {
				ys = make([][]float64, 0, b.cols)
				for _, i := range b.samples {
					ys = append(ys, d.Samples[i].Values...)
				}
			}
			cols = g.fitColumns(ys, opt.Criterion)
		}
		r := make([]mapped[T], len(b.samples))
		for k, i := range b.samples {
			fit, err := (*Fit)(nil), g.err
			if err == nil {
				p := len(d.Samples[i].Values)
				fit, err = newFit(cols[:p], cache)
				cols = cols[p:]
			}
			r[k].val, r[k].err = fn(i, fit, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]T, d.Len())
	first, firstErr := d.Len(), error(nil)
	for bi, r := range res {
		for k, i := range blocks[bi].samples {
			if r[k].err != nil && i < first {
				first, firstErr = i, r[k].err
			}
			out[i] = r[k].val
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// mapped is what fn returned for one sample. A block returns its
// samples' errors among its values, so that the lowest-index sample's
// error can be picked across blocks.
type mapped[T any] struct {
	val T
	err error
}

// gridGroup is one group's grid and, once its first block asks, its
// smoothing systems.
type gridGroup struct {
	ts   []float64
	hash uint64
	once sync.Once
	sys  gridSystems
}

// systems returns the group's smoothing systems, building them on the
// first call.
func (g *gridGroup) systems(opt Options) *gridSystems {
	g.once.Do(func() {
		g.sys = newGridSystems(g.ts, g.hash, opt, true)
	})
	return &g.sys
}

// block is the samples one fitColumns call fits: indices into the
// dataset, ascending, all on the grid of one group, with cols
// parameter rows between them.
type block struct {
	grid    *gridGroup
	samples []int
	cols    int
}

// planBlocks groups the samples by the bits of their grid, or each
// sample alone when noCache is set, and cuts every group into blocks
// of at least width parameter rows (the last may hold fewer), listed
// in the order of their first sample.
func planBlocks(samples []Sample, noCache bool, width int) []block {
	var blocks []block
	// open maps a grid's hash to its groups (a hash collision makes
	// two), each with the index of its block still filling.
	type openGroup struct {
		grid  gridGroup
		block int
	}
	open := make(map[uint64][]*openGroup)
	for i, s := range samples {
		h := hashFloats(s.Times)
		var og *openGroup
		for _, o := range open[h] {
			if sameFloats(o.grid.ts, s.Times) {
				og = o
				break
			}
		}
		if og == nil {
			og = &openGroup{grid: gridGroup{ts: s.Times, hash: h}, block: -1}
			if !noCache {
				open[h] = append(open[h], og)
			}
		}
		if og.block < 0 || blocks[og.block].cols >= width {
			og.block = len(blocks)
			blocks = append(blocks, block{grid: &og.grid})
		}
		b := &blocks[og.block]
		b.samples = append(b.samples, i)
		b.cols += len(s.Values)
	}
	return blocks
}
