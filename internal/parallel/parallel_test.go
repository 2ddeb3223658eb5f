package parallel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0, 1000); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 1000) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Fatalf("Workers(-1, 0) = %d, want 1", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 513
		counts := make([]atomic.Int64, n)
		For(n, workers, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkerIDsBounded(t *testing.T) {
	const n, workers = 100, 4
	var bad atomic.Int64
	For(n, workers, func(worker, _ int) {
		if worker < 0 || worker >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw a worker id outside [0, %d)", bad.Load(), workers)
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	For(0, 4, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty index space")
	}
}

func TestForRepanicsOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	For(100, 4, func(_, i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Fatal("For returned instead of panicking")
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Fatalf("FirstError(all nil) = %v", err)
	}
	if err := FirstError([]error{nil, e1, e2}); err != e1 {
		t.Fatalf("FirstError = %v, want lowest-index error", err)
	}
}

// mapValue is a per-index computation whose float result depends on the
// order of its own arithmetic only.
func mapValue(i int) float64 {
	v := float64(i)
	for k := 1; k <= 50; k++ {
		v = math.Sin(v) + float64(k)/float64(i+1)
	}
	return v
}

func TestMapMatchesSequentialLoop(t *testing.T) {
	const n = 301
	want := make([]float64, n)
	for i := range want {
		want[i] = mapValue(i)
	}
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		got, err := Map(n, workers, func(i int) (float64, error) { return mapValue(i), nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: index %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapLowestIndexErrorAndNoResults(t *testing.T) {
	failing := map[int]bool{5: true, 37: true, 290: true}
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		got, err := Map(301, workers, func(i int) (int, error) {
			if failing[i] {
				return i, fmt.Errorf("index %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "index 5" {
			t.Fatalf("workers=%d: err = %v, want the index 5 error", workers, err)
		}
		if got != nil {
			t.Fatalf("workers=%d: results %v returned with an error", workers, got)
		}
	}
}

func TestMapRepanicsOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_, _ = Map(100, 4, func(i int) (int, error) {
		if i == 17 {
			panic("boom")
		}
		return i, nil
	})
	t.Fatal("Map returned instead of panicking")
}
