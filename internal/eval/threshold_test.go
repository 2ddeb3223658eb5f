package eval

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 85, FN: 5}
	if got := c.Precision(); got != 0.8 {
		t.Fatalf("precision = %g want 0.8", got)
	}
	if got := c.Recall(); got != 8.0/13 {
		t.Fatalf("recall = %g want %g", got, 8.0/13)
	}
	f1 := c.F1()
	p, r := c.Precision(), c.Recall()
	if f1 != 2*p*r/(p+r) {
		t.Fatalf("F1 = %g", f1)
	}
	empty := Confusion{}
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Fatal("empty confusion metrics must be 0")
	}
}

func TestConfuse(t *testing.T) {
	scores := []float64{0.1, 0.6, 0.8, 0.3}
	labels := []int{0, 1, 1, 0}
	c, err := Confuse(scores, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.TN != 2 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("confusion = %+v", c)
	}
	if _, err := Confuse([]float64{1}, []int{1, 0}, 0.5); !errors.Is(err, ErrEval) {
		t.Fatal("length mismatch must fail")
	}
}

func TestBestThresholdYoudenSeparable(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.3, 0.7, 0.8, 0.9}
	labels := []int{0, 0, 0, 1, 1, 1}
	res, err := BestThresholdYouden(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Fatalf("J = %g want 1 on separable data", res.Value)
	}
	if res.Threshold <= 0.3 || res.Threshold >= 0.7 {
		t.Fatalf("threshold = %g want in (0.3, 0.7)", res.Threshold)
	}
	if res.Confusion.TP != 3 || res.Confusion.TN != 3 {
		t.Fatalf("confusion = %+v", res.Confusion)
	}
}

func TestBestThresholdF1(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.3, 0.7, 0.8, 0.9}
	labels := []int{0, 0, 0, 1, 1, 1}
	res, err := BestThresholdF1(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Fatalf("F1 = %g want 1 on separable data", res.Value)
	}
}

// Property: the Youden threshold's J equals TPR−FPR recomputed from its
// confusion matrix, and no candidate threshold does better.
func TestYoudenOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]int, n)
		labels[0], labels[1] = 0, 1
		for i := range scores {
			scores[i] = float64(rng.Intn(6))
			if i > 1 {
				labels[i] = rng.Intn(2)
			}
		}
		res, err := BestThresholdYouden(scores, labels)
		if err != nil {
			return false
		}
		// Exhaustively check candidate thresholds at each score value.
		for _, th := range scores {
			c, err := Confuse(scores, labels, th)
			if err != nil {
				return false
			}
			var tpr, fpr float64
			if c.TP+c.FN > 0 {
				tpr = float64(c.TP) / float64(c.TP+c.FN)
			}
			if c.FP+c.TN > 0 {
				fpr = float64(c.FP) / float64(c.FP+c.TN)
			}
			if tpr-fpr > res.Value+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticThresholdSeparable(t *testing.T) {
	scores := []float64{0, 0.1, 0.2, 0.3, 1.7, 1.8, 1.9, 2.0}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	res, err := LogisticThreshold(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold <= 0.3 || res.Threshold >= 1.7 {
		t.Fatalf("logistic threshold = %g want in (0.3, 1.7)", res.Threshold)
	}
	if res.Confusion.F1() != 1 {
		t.Fatalf("F1 at threshold = %g want 1", res.Confusion.F1())
	}
}

func TestLogisticThresholdImbalanced(t *testing.T) {
	// 95 inliers near 0, 5 outliers near 3: the weighted fit must still
	// place the cut between the clusters rather than swamping the minority.
	rng := rand.New(rand.NewSource(1))
	var scores []float64
	var labels []int
	for i := 0; i < 95; i++ {
		scores = append(scores, 0.2*rng.NormFloat64())
		labels = append(labels, 0)
	}
	for i := 0; i < 5; i++ {
		scores = append(scores, 3+0.2*rng.NormFloat64())
		labels = append(labels, 1)
	}
	res, err := LogisticThreshold(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold < 0.8 || res.Threshold > 2.8 {
		t.Fatalf("imbalanced threshold = %g want between clusters", res.Threshold)
	}
	if res.Confusion.Recall() != 1 {
		t.Fatalf("minority recall = %g want 1", res.Confusion.Recall())
	}
}

func TestLogisticThresholdErrors(t *testing.T) {
	if _, err := LogisticThreshold(nil, nil); !errors.Is(err, ErrEval) {
		t.Fatal("empty input must fail")
	}
	if _, err := LogisticThreshold([]float64{1, 2}, []int{0, 0}); !errors.Is(err, ErrEval) {
		t.Fatal("single class must fail")
	}
	if _, err := LogisticThreshold([]float64{1, 1}, []int{0, 1}); !errors.Is(err, ErrEval) {
		t.Fatal("constant scores must fail")
	}
}

func TestLogisticThresholdAntiInformativeFallsBack(t *testing.T) {
	// Scores anti-correlated with labels: the slope would be negative, so
	// the ROC fallback must kick in and still return a result.
	scores := []float64{0.9, 0.8, 0.7, 0.1, 0.2, 0.3}
	labels := []int{0, 0, 0, 1, 1, 1}
	if _, err := LogisticThreshold(scores, labels); err != nil {
		t.Fatal(err)
	}
}
