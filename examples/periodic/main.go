// Periodic: gait-cycle monitoring with the Fourier basis.
//
// Sec. 2.1 of the paper notes that for periodic data the B-spline basis
// can be swapped for the Fourier basis. This example simulates periodic
// gait cycles — hip and knee angles over one stride — and detects subjects
// with an asymmetric stride (a limp): the two angles are individually
// periodic and in range, but their phase relationship is distorted over
// half the cycle. The pipeline is identical to the paper's except for the
// basis factory.
//
// Run with:
//
//	go run ./examples/periodic
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"repro/internal/bspline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/stats"
)

// simulateGait builds n strides of m samples; label-1 subjects limp: the
// knee angle lags the hip by an extra quarter cycle during stance.
func simulateGait(n, m int, outlierFrac float64, seed int64) fda.Dataset {
	rng := stats.NewRand(seed, 0)
	times := fda.UniformGrid(0, 1, m)
	nOut := int(outlierFrac * float64(n))
	d := fda.Dataset{Samples: make([]fda.Sample, n), Labels: make([]int, n)}
	for i := 0; i < n; i++ {
		amp := 1 + 0.1*rng.NormFloat64()
		phase := 0.03 * rng.NormFloat64()
		label := 0
		lag := 0.10 // healthy hip→knee lag (fraction of the cycle)
		if i < nOut {
			label = 1
			lag = 0.25 // limp: exaggerated lag
		}
		hip := make([]float64, m)
		knee := make([]float64, m)
		for j, t := range times {
			hip[j] = amp*math.Sin(2*math.Pi*(t+phase)) + 0.04*rng.NormFloat64()
			knee[j] = 0.9*amp*math.Sin(2*math.Pi*(t+phase-lag)) +
				0.3*math.Sin(4*math.Pi*(t+phase-lag)) + 0.04*rng.NormFloat64()
		}
		d.Samples[i] = fda.Sample{Times: times, Values: [][]float64{hip, knee}}
		d.Labels[i] = label
	}
	perm := rng.Perm(n)
	out := fda.Dataset{Samples: make([]fda.Sample, n), Labels: make([]int, n)}
	for i, p := range perm {
		out.Samples[i] = d.Samples[p]
		out.Labels[i] = d.Labels[p]
	}
	return out
}

func main() {
	gaits := simulateGait(100, 80, 0.1, 21)

	p := &core.Pipeline{
		Smooth: fda.Options{
			// Periodic data: Fourier basis instead of B-splines (Sec. 2.1).
			Dims: []int{7, 11, 15},
			Basis: func(dim int, lo, hi float64) (bspline.Basis, error) {
				if dim%2 == 0 {
					dim++
				}
				return bspline.NewFourier(dim, lo, hi)
			},
		},
		Mapping:      geometry.Curvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 21}),
		Standardize:  true,
	}
	if err := p.Fit(gaits); err != nil {
		log.Fatal(err)
	}
	scores, err := p.Score(gaits)
	if err != nil {
		log.Fatal(err)
	}
	auc, err := eval.AUC(scores, gaits.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("limp detection on 100 simulated strides (10%% limping): AUC = %.3f\n\n", auc)

	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	fmt.Println("top 10 flagged strides (label 1 = limping):")
	for _, i := range idx[:10] {
		fmt.Printf("  stride %3d  score %.4f  label %d\n", i, scores[i], gaits.Labels[i])
	}
	fmt.Println("\nthe limp never pushes either joint angle out of range — it distorts")
	fmt.Println("the hip–knee phase portrait, which the curvature of the (hip, knee)")
	fmt.Println("path exposes; the Fourier basis matches the signal's periodicity.")
}
