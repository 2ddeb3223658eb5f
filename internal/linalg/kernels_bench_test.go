package linalg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// fig3Block returns the Fig. 3 smoothing shape — 85 grid points and the
// default ladder's largest cubic basis, L = 21, with 4-wide windows —
// and a block of cols columns on it: the values ys (85×cols row-major),
// their Φᵀy and their solutions (21×cols), and LOOCV denominators.
func fig3Block(b *testing.B, cols int) (phi *linalg.SpanMatrix, bc *linalg.BandCholesky, ys, pt, x, den []float64) {
	ts := make([]float64, 85)
	for j := range ts {
		ts[j] = float64(j) / 84
	}
	phi, bc, _ = smoothingSystem(b, 21, 4, ts, 1e-4)
	rng := rand.New(rand.NewSource(1))
	cs := make([][]float64, cols)
	ys = make([]float64, len(ts)*cols)
	for c := range cs {
		cs[c] = make([]float64, len(ts))
		for j := range cs[c] {
			cs[c][j] = rng.NormFloat64()
			ys[j*cols+c] = cs[c][j]
		}
	}
	pt, x = make([]float64, 21*cols), make([]float64, 21*cols)
	if err := phi.AtVecInto(cs, pt); err != nil {
		b.Fatal(err)
	}
	if err := bc.SolveInto(pt, x); err != nil {
		b.Fatal(err)
	}
	den = make([]float64, len(ts))
	for j := range den {
		den[j] = 0.5 + rng.Float64()/2
	}
	return phi, bc, ys, pt, x, den
}

// blockWidths are the column counts the kernel benchmarks run: one
// curve's two parameters (every single-curve request and stream
// refit), one group of four, and a smoother block of 16 curves.
var blockWidths = []int{2, 4, 32}

// BenchmarkResidualSums times one λ's residual sums of a block on the
// Fig. 3 shape.
func BenchmarkResidualSums(b *testing.B) {
	for _, cols := range blockWidths {
		b.Run(fmt.Sprintf("B=%d", cols), func(b *testing.B) {
			phi, _, ys, _, x, den := fig3Block(b, cols)
			rss, wss := make([]float64, cols), make([]float64, cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := phi.ResidualSums(x, ys, den, rss, wss); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBandSolveColumns times one λ's band solve of a block on the
// Fig. 3 shape.
func BenchmarkBandSolveColumns(b *testing.B) {
	for _, cols := range blockWidths {
		b.Run(fmt.Sprintf("B=%d", cols), func(b *testing.B) {
			_, bc, _, pt, x, _ := fig3Block(b, cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.SolveInto(pt, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
