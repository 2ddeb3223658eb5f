// Package worker is an mfodlint fixture for the poolmisuse analyzer:
// goroutine launches outside the sanctioned concurrency packages, and
// parallel.FirstError used outside internal/parallel.
package worker

import "repro/internal/parallel"

// Raw launches a goroutine by hand in a numeric package.
func Raw(n int) int {
	done := make(chan int)
	go func() { done <- n }() // want "goroutine launched outside"
	return <-done
}

// Early fills result and error slices by hand and checks them with
// FirstError: nothing stops it reading out[0], a partial result on a
// failed run, before the check.
func Early(xs []float64) (float64, error) {
	out := make([]float64, len(xs))
	errs := make([]error, len(xs))
	parallel.For(len(xs), 0, func(_, i int) {
		out[i] = xs[i] * 2
		errs[i] = nil
	})
	first := out[0]
	if err := parallel.FirstError(errs); err != nil { // want "FirstError outside internal/parallel"
		return 0, err
	}
	return first, nil
}

// Clean is the sanctioned pattern: Map returns results only with a nil
// error.
func Clean(xs []float64) (float64, error) {
	out, err := parallel.Map(len(xs), 0, func(i int) (float64, error) {
		return xs[i] * 2, nil
	})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// NoErrs fans out without an error slice at all (pure writes): reading
// results immediately is fine, there is no error return to wait for.
func NoErrs(xs []float64) float64 {
	out := make([]float64, len(xs))
	parallel.For(len(xs), 0, func(_, i int) {
		out[i] = xs[i] * 2
	})
	return out[0]
}

// AllowedGo documents a tolerated lifecycle goroutine.
func AllowedGo(n int) int {
	done := make(chan int)
	//mfodlint:allow poolmisuse fixture lifecycle goroutine, joined via the done channel on the next line
	go func() { done <- n }()
	return <-done
}

type runner struct{ n int }

func (r *runner) run() {}

// MethodGo launches a method value: the launch shape must not matter.
func MethodGo(r *runner) {
	go r.run() // want "goroutine launched outside"
}

// VarGo binds the literal to a variable before launching it.
func VarGo(n int) {
	body := func() { _ = n }
	go body() // want "goroutine launched outside"
}

// EarlyVarWorker binds the worker literal to a variable and the check
// to another: the check is still FirstError outside internal/parallel.
func EarlyVarWorker(xs []float64) (float64, error) {
	out := make([]float64, len(xs))
	errs := make([]error, len(xs))
	worker := func(_, i int) {
		out[i] = xs[i] * 2
		errs[i] = nil
	}
	parallel.For(len(xs), 0, worker)
	check := parallel.FirstError // want "FirstError outside internal/parallel"
	first := out[0]
	if err := check(errs); err != nil {
		return 0, err
	}
	return first, nil
}

// CleanVarWorker is the same shape done right: the worker bound to a
// variable and run through Map.
func CleanVarWorker(xs []float64) (float64, error) {
	worker := func(i int) (float64, error) { return xs[i] * 2, nil }
	out, err := parallel.Map(len(xs), 0, worker)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
