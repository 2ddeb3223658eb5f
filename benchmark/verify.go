package main

import (
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/parallel"
)

// verify checks every score the fleet returned against ScoreOne of a
// reference pipeline loaded from the same model file, on raw float64
// bits. The reference runs with Smooth.NoCache, so it keeps no basis
// memory resident and rebuilds every smoothing system for every curve.
// An operation with a wrong score is marked failed.
func verify(modelPath string, in *inputs, ops []op) error {
	f, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	ref, err := core.LoadPipelineJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	ref.Smooth.NoCache = true
	ref.Parallel = 1

	index := map[curveKey]int{}
	var keys []curveKey
	for _, o := range ops {
		if !o.ok {
			continue
		}
		for _, k := range o.keys {
			if _, seen := index[k]; !seen {
				index[k] = len(keys)
				keys = append(keys, k)
			}
		}
	}
	want := make([]float64, len(keys))
	errs := make([]error, len(keys))
	parallel.For(len(keys), runtime.GOMAXPROCS(0), func(_, i int) {
		want[i], errs[i] = ref.ScoreOne(in.sample(keys[i]))
	})
	if err := parallel.FirstError(errs); err != nil {
		return fmt.Errorf("reference score: %w", err)
	}

	for i := range ops {
		o := &ops[i]
		if !o.ok {
			continue
		}
		for j, k := range o.keys {
			if math.Float64bits(o.scores[j]) != math.Float64bits(want[index[k]]) {
				o.ok = false
				break
			}
		}
	}
	return nil
}
