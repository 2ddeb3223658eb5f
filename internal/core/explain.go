package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fda"
)

// Explanation attributes a sample's outlyingness to one mapped feature:
// the grid position whose value deviates most from the training
// distribution of the mapped curves. It turns the pipeline's verdict into
// the "where does the geometry deviate" answer an analyst needs — the
// interpretability direction the paper's Sec. 5 closes with.
type Explanation struct {
	// FeatureIndex is the position in the mapped feature vector.
	FeatureIndex int
	// T is the grid time the feature corresponds to (the mapping is
	// evaluated on the pipeline grid; stacked mappings wrap around it).
	T float64
	// Z is the standardized deviation (sign retained: positive means the
	// sample's mapped value exceeds the training mean).
	Z float64
}

// Explain returns the k most deviant mapped features of one sample,
// ordered by |Z| descending. The pipeline must have been fitted with
// Standardize: true, which is what records the training feature
// statistics the attribution is measured against.
func (p *Pipeline) Explain(s fda.Sample, k int) ([]Explanation, error) {
	if !p.fitted {
		return nil, fmt.Errorf("core: pipeline not fitted: %w", ErrPipeline)
	}
	if p.featMean == nil {
		return nil, fmt.Errorf("core: Explain requires Standardize: %w", ErrPipeline)
	}
	feats, err := p.features(fda.Dataset{Samples: []fda.Sample{s}})
	if err != nil {
		return nil, err
	}
	if err := p.standardize(feats, 0, len(p.grid)-1); err != nil {
		return nil, err
	}
	out := make([]Explanation, len(feats[0]))
	for j, z := range feats[0] {
		out[j] = Explanation{FeatureIndex: j, T: p.grid[j%len(p.grid)], Z: z}
	}
	sort.Slice(out, func(a, b int) bool { return math.Abs(out[a].Z) > math.Abs(out[b].Z) })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}
