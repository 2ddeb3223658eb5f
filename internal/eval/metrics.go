package eval

import (
	"fmt"
	"sort"
)

// AveragePrecision returns the area under the precision–recall curve
// computed by the step-wise interpolation standard in information
// retrieval: the mean of precision@k over the ranks k at which an outlier
// appears. Ties are broken pessimistically (inliers first within a tied
// block), so the value never flatters the scorer.
func AveragePrecision(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores for %d labels: %w", len(scores), len(labels), ErrEval)
	}
	var nPos int
	for _, l := range labels {
		switch l {
		case 1:
			nPos++
		case 0:
		default:
			return 0, fmt.Errorf("eval: label %d is not 0/1: %w", l, ErrEval)
		}
	}
	if nPos == 0 {
		return 0, fmt.Errorf("eval: no outliers to rank: %w", ErrEval)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		//mfodlint:allow floateq sort tie-break over one computed slice: ties are exact duplicates; tolerance ordering is not a strict weak order
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		// Pessimistic tie-break: rank inliers above outliers.
		return labels[idx[a]] < labels[idx[b]]
	})
	var hits int
	var sum float64
	for k, i := range idx {
		if labels[i] == 1 {
			hits++
			sum += float64(hits) / float64(k+1)
		}
	}
	return sum / float64(nPos), nil
}
