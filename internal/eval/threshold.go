package eval

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the threshold-learning step sketched in Sec. 4.2 of
// the paper: when labels are available, the outlyingness scores can be
// combined with them "to learn an outlyingness threshold that can best
// discriminate outliers from inliers … from the ROC as well as an
// imbalanced classification algorithm in a one dimensional manner".

// Confusion is the 2×2 confusion matrix of a thresholded scorer.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP), 0 when no positives are predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Confuse evaluates the rule "score >= threshold ⇒ outlier" against labels.
func Confuse(scores []float64, labels []int, threshold float64) (Confusion, error) {
	if len(scores) != len(labels) {
		return Confusion{}, fmt.Errorf("eval: %d scores for %d labels: %w", len(scores), len(labels), ErrEval)
	}
	var c Confusion
	for i, s := range scores {
		predicted := s >= threshold
		actual := labels[i] == 1
		switch {
		case predicted && actual:
			c.TP++
		case predicted && !actual:
			c.FP++
		case !predicted && actual:
			c.FN++
		default:
			c.TN++
		}
	}
	return c, nil
}

// ThresholdResult is a learned threshold with the criterion value it
// achieved on the training scores.
type ThresholdResult struct {
	Threshold float64
	Value     float64
	Confusion Confusion
}

// sweepThresholds evaluates criterion at every distinct-score cut and
// returns the best. Candidate thresholds are the midpoints between
// consecutive distinct scores plus sentinels below and above all scores.
func sweepThresholds(scores []float64, labels []int, criterion func(Confusion) float64) (ThresholdResult, error) {
	if len(scores) != len(labels) || len(scores) == 0 {
		return ThresholdResult{}, fmt.Errorf("eval: %d scores for %d labels: %w", len(scores), len(labels), ErrEval)
	}
	distinct := append([]float64{}, scores...)
	sort.Float64s(distinct)
	cands := []float64{distinct[0] - 1}
	for i := 1; i < len(distinct); i++ {
		if distinct[i] > distinct[i-1] {
			cands = append(cands, (distinct[i]+distinct[i-1])/2)
		}
	}
	cands = append(cands, distinct[len(distinct)-1]+1)
	best := ThresholdResult{Value: math.Inf(-1)}
	for _, th := range cands {
		c, err := Confuse(scores, labels, th)
		if err != nil {
			return ThresholdResult{}, err
		}
		if v := criterion(c); v > best.Value {
			best = ThresholdResult{Threshold: th, Value: v, Confusion: c}
		}
	}
	return best, nil
}

// BestThresholdYouden learns the ROC-based threshold maximising Youden's
// J = TPR − FPR, the standard "best point on the ROC" rule.
func BestThresholdYouden(scores []float64, labels []int) (ThresholdResult, error) {
	return sweepThresholds(scores, labels, func(c Confusion) float64 {
		var tpr, fpr float64
		if c.TP+c.FN > 0 {
			tpr = float64(c.TP) / float64(c.TP+c.FN)
		}
		if c.FP+c.TN > 0 {
			fpr = float64(c.FP) / float64(c.FP+c.TN)
		}
		return tpr - fpr
	})
}

// BestThresholdF1 learns the threshold maximising F1 on the outlier class,
// often preferred under heavy class imbalance.
func BestThresholdF1(scores []float64, labels []int) (ThresholdResult, error) {
	return sweepThresholds(scores, labels, Confusion.F1)
}

// LogisticThreshold fits a class-weighted one-dimensional logistic
// regression P(outlier | s) = σ(a·s + b) on the scores — the "imbalanced
// classification algorithm in a one dimensional manner" of Sec. 4.2 (cf.
// Owen 2007) — and returns the score at which the weighted posterior
// crosses ½, i.e. s* = −b/a. Classes are weighted inversely to their
// frequencies so the minority outlier class is not swamped.
func LogisticThreshold(scores []float64, labels []int) (ThresholdResult, error) {
	n := len(scores)
	if n != len(labels) || n == 0 {
		return ThresholdResult{}, fmt.Errorf("eval: %d scores for %d labels: %w", len(scores), len(labels), ErrEval)
	}
	var nPos, nNeg int
	for _, l := range labels {
		if l == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return ThresholdResult{}, fmt.Errorf("eval: logistic threshold needs both classes: %w", ErrEval)
	}
	wPos := float64(n) / (2 * float64(nPos))
	wNeg := float64(n) / (2 * float64(nNeg))
	// Standardise the score for conditioning; un-standardise at the end.
	var mean float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(n)
	var sd float64
	for _, s := range scores {
		sd += (s - mean) * (s - mean)
	}
	sd = math.Sqrt(sd / float64(n))
	if sd == 0 {
		return ThresholdResult{}, fmt.Errorf("eval: constant scores: %w", ErrEval)
	}
	z := make([]float64, n)
	for i, s := range scores {
		z[i] = (s - mean) / sd
	}
	// Newton iterations on the weighted log-likelihood of (a, b).
	a, b := 1.0, 0.0
	for iter := 0; iter < 100; iter++ {
		var ga, gb, haa, hab, hbb float64
		for i, zi := range z {
			w := wNeg
			y := 0.0
			if labels[i] == 1 {
				w = wPos
				y = 1
			}
			p := 1 / (1 + math.Exp(-(a*zi + b)))
			d := w * (y - p)
			ga += d * zi
			gb += d
			v := w * p * (1 - p)
			haa += v * zi * zi
			hab += v * zi
			hbb += v
		}
		// Solve the 2×2 Newton system H Δ = g with a tiny ridge.
		haa += 1e-9
		hbb += 1e-9
		det := haa*hbb - hab*hab
		if math.Abs(det) < 1e-18 {
			break
		}
		da := (ga*hbb - gb*hab) / det
		db := (gb*haa - ga*hab) / det
		a += da
		b += db
		if math.Abs(da)+math.Abs(db) < 1e-10 {
			break
		}
	}
	if a <= 0 {
		// The fitted slope must be positive: higher score → more outlying.
		// A non-positive slope means the scores are anti-informative;
		// fall back to the ROC threshold.
		return BestThresholdYouden(scores, labels)
	}
	zStar := -b / a
	th := zStar*sd + mean
	c, err := Confuse(scores, labels, th)
	if err != nil {
		return ThresholdResult{}, err
	}
	return ThresholdResult{Threshold: th, Value: c.F1(), Confusion: c}, nil
}
