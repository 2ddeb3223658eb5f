// Package eval implements the experimental protocol of Sec. 4.1: ROC/AUC
// computation, random train/test splits with a controlled training-set
// contamination level, and a repetition runner that averages AUC over many
// splits in parallel.
package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEval reports invalid evaluation input.
var ErrEval = errors.New("eval: invalid input")

// AUC returns the area under the ROC curve for outlyingness scores against
// binary labels (1 = outlier, 0 = inlier), computed as the Mann–Whitney U
// statistic with ties counted half. It errors when either class is empty.
func AUC(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores for %d labels: %w", len(scores), len(labels), ErrEval)
	}
	var nPos, nNeg int
	for _, l := range labels {
		switch l {
		case 1:
			nPos++
		case 0:
			nNeg++
		default:
			return 0, fmt.Errorf("eval: label %d is not 0/1: %w", l, ErrEval)
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("eval: need both classes (pos=%d neg=%d): %w", nPos, nNeg, ErrEval)
	}
	for _, s := range scores {
		if math.IsNaN(s) {
			return 0, fmt.Errorf("eval: NaN score: %w", ErrEval)
		}
	}
	// Midrank formulation: AUC = (R_pos − nPos(nPos+1)/2) / (nPos·nNeg)
	// where R_pos is the rank sum of positive scores (1-based midranks).
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var rankSumPos float64
	for i := 0; i < len(idx); {
		j := i
		//mfodlint:allow floateq tie-group detection over one computed slice: ties are exact duplicates; a tolerance would merge near-ties
		for j+1 < len(idx) && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		midrank := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			if labels[idx[k]] == 1 {
				rankSumPos += midrank
			}
		}
		i = j + 1
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}
