package eval

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAveragePrecisionPerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	ap, err := AveragePrecision(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ap != 1 {
		t.Fatalf("AP = %g want 1", ap)
	}
}

func TestAveragePrecisionKnown(t *testing.T) {
	// Ranking: out, in, out, in → precisions at hits: 1/1, 2/3 → AP = 5/6.
	scores := []float64{4, 3, 2, 1}
	labels := []int{1, 0, 1, 0}
	ap, err := AveragePrecision(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ap-5.0/6) > 1e-12 {
		t.Fatalf("AP = %g want %g", ap, 5.0/6)
	}
}

func TestAveragePrecisionPessimisticTies(t *testing.T) {
	// All scores tied: inliers rank first, so the outlier lands last.
	scores := []float64{1, 1, 1}
	labels := []int{1, 0, 0}
	ap, err := AveragePrecision(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ap-1.0/3) > 1e-12 {
		t.Fatalf("tied AP = %g want 1/3 (pessimistic)", ap)
	}
}

func TestAveragePrecisionErrors(t *testing.T) {
	if _, err := AveragePrecision([]float64{1}, []int{1, 0}); !errors.Is(err, ErrEval) {
		t.Fatal("length mismatch must fail")
	}
	if _, err := AveragePrecision([]float64{1, 2}, []int{0, 0}); !errors.Is(err, ErrEval) {
		t.Fatal("no outliers must fail")
	}
	if _, err := AveragePrecision([]float64{1}, []int{2}); !errors.Is(err, ErrEval) {
		t.Fatal("bad label must fail")
	}
}

// Property: AP of a perfect ranking is 1; of a perfectly inverted ranking
// it is minimal among permutations of the same label multiset.
func TestAveragePrecisionBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		nPos := 1 + rng.Intn(n-1)
		// Perfect: positives first.
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = float64(n - i)
			if i < nPos {
				labels[i] = 1
			}
		}
		ap, err := AveragePrecision(scores, labels)
		if err != nil || ap != 1 {
			return false
		}
		// Inverted: positives last.
		for i := range labels {
			labels[i] = 0
			if i >= n-nPos {
				labels[i] = 1
			}
		}
		apInv, err := AveragePrecision(scores, labels)
		if err != nil {
			return false
		}
		return apInv > 0 && apInv <= ap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
