// Aircraft: the paper's engineering motivation — two correlated sensor
// channels per flight, with outliers whose *relationship* between the
// channels is abnormal while each channel alone looks typical.
//
// A fleet of simulated flights records two parameters over a manoeuvre:
// pitch command and resulting load factor. Healthy flights follow a
// consistent phase-coupled response; degraded flights respond with the
// wrong phase (actuator lag) — marginally indistinguishable pointwise,
// but tracing a visibly different loop in the (x1, x2) plane. The example
// shows that a per-channel amplitude check misses them while the
// curvature pipeline finds them.
//
// Run with:
//
//	go run ./examples/aircraft
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/stats"
)

// simulateFleet builds n flights of m points; flights with label 1 have a
// lagged load-factor response (phase shift in the coupling).
func simulateFleet(n, m int, outlierFrac float64, seed int64) fda.Dataset {
	rng := stats.NewRand(seed, 0)
	times := fda.UniformGrid(0, 1, m)
	nOut := int(outlierFrac * float64(n))
	d := fda.Dataset{Samples: make([]fda.Sample, n), Labels: make([]int, n)}
	for i := 0; i < n; i++ {
		amp := 1 + 0.15*rng.NormFloat64()
		phase := 0.1 * rng.NormFloat64()
		lag := 0.12 + 0.03*rng.NormFloat64() // healthy actuator lag
		label := 0
		if i < nOut {
			label = 1
			lag = 0.55 + 0.05*rng.NormFloat64() // degraded: badly lagged
		}
		pitch := make([]float64, m)
		load := make([]float64, m)
		for j, t := range times {
			pitch[j] = amp*math.Sin(2*math.Pi*(t+phase)) + 0.04*rng.NormFloat64()
			load[j] = 0.9*amp*math.Sin(2*math.Pi*(t+phase-lag)) + 0.04*rng.NormFloat64()
		}
		d.Samples[i] = fda.Sample{Times: times, Values: [][]float64{pitch, load}}
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

// amplitudeBaseline scores each flight by how extreme its per-channel
// amplitude is — the naive pointwise check.
func amplitudeBaseline(d fda.Dataset) []float64 {
	amps := make([]float64, d.Len())
	for i, s := range d.Samples {
		var a float64
		for _, ch := range s.Values {
			lo, hi := stats.MinMax(ch)
			a += hi - lo
		}
		amps[i] = a
	}
	med := stats.Median(amps)
	mad := stats.MAD(amps)
	out := make([]float64, len(amps))
	for i, a := range amps {
		out[i] = math.Abs(a-med) / mad
	}
	return out
}

func main() {
	fleet := simulateFleet(120, 90, 0.1, 3)

	// Naive per-channel amplitude screening.
	ampScores := amplitudeBaseline(fleet)
	ampAUC, err := eval.AUC(ampScores, fleet.Labels)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's geometric pipeline.
	p := &core.Pipeline{
		Mapping:      geometry.Curvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 3}),
		Standardize:  true,
	}
	if err := p.Fit(fleet); err != nil {
		log.Fatal(err)
	}
	curvScores, err := p.Score(fleet)
	if err != nil {
		log.Fatal(err)
	}
	curvAUC, err := eval.AUC(curvScores, fleet.Labels)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("degraded-actuator detection on 120 simulated flights (10% degraded):")
	fmt.Printf("  per-channel amplitude screening  AUC = %.3f\n", ampAUC)
	fmt.Printf("  curvature pipeline (iForest)     AUC = %.3f\n", curvAUC)
	fmt.Println("\nthe lag anomaly lives in the phase relationship between the two")
	fmt.Println("channels: each channel alone is a normal sinusoid, so amplitude")
	fmt.Println("screening is blind, while the (pitch, load) path bends differently")
	fmt.Println("and the curvature mapping exposes it.")
}
