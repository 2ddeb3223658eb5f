package eval

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAUCPerfect(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{0, 0, 1, 1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUC = %g want 1", auc)
	}
}

func TestAUCInverted(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{0, 0, 1, 1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("AUC = %g want 0", auc)
	}
}

func TestAUCTiesCountHalf(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{0, 1, 0, 1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("all-tied AUC = %g want 0.5", auc)
	}
}

func TestAUCKnownMixed(t *testing.T) {
	// scores: pos {3,1}, neg {2,0}: pairs (3>2),(3>0),(1<2),(1>0) → 3/4.
	scores := []float64{3, 1, 2, 0}
	labels := []int{1, 1, 0, 0}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.75 {
		t.Fatalf("AUC = %g want 0.75", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1}, []int{1, 0}); !errors.Is(err, ErrEval) {
		t.Fatal("length mismatch must fail")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 1}); !errors.Is(err, ErrEval) {
		t.Fatal("single class must fail")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 2}); !errors.Is(err, ErrEval) {
		t.Fatal("non-binary label must fail")
	}
	if _, err := AUC([]float64{math.NaN(), 2}, []int{1, 0}); !errors.Is(err, ErrEval) {
		t.Fatal("NaN score must fail")
	}
}

// Property: flipping labels maps AUC to 1 − AUC.
func TestAUCLabelFlipProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]int, n)
		labels[0], labels[1] = 0, 1 // guarantee both classes
		for i := range scores {
			scores[i] = float64(rng.Intn(10)) // force ties
			if i > 1 {
				labels[i] = rng.Intn(2)
			}
		}
		flipped := make([]int, n)
		for i, l := range labels {
			flipped[i] = 1 - l
		}
		a1, err1 := AUC(scores, labels)
		a2, err2 := AUC(scores, flipped)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a1+a2-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
