package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestVectorBodiesMatchGoBodies holds each AVX2 body to the Go body it
// replaces, in Float64bits: the residual sums over 4-wide windows, at
// random and advancing starts, and the written-out forward and back
// rows of a bandwidth-3 solve, on the block widths of residualColumns.
// Every operand is a spanValue draw, so zeros of both signs, subnormals,
// divisions by zero and products that overflow to ±Inf and NaN reach
// the lanes. The columns past the whole groups of four must be left as
// they were.
func TestVectorBodiesMatchGoBodies(t *testing.T) {
	t.Logf("AVX2 vector bodies: %v", avx2)
	if !avx2 {
		t.Skip("no AVX2 on this CPU: every kernel runs its Go body")
	}
	rng := rand.New(rand.NewSource(17))
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = spanValue(rng)
		}
		return v
	}
	const sentinel = 12345.0
	nonFinite := 0
	for _, m := range []int{0, 1, 2, 7, 85} {
		for _, n := range []int{4, 5, 11, 21} {
			for _, sorted := range []bool{false, true} {
				s, _ := randomSpan(rng, m, n, 4)
				if sorted {
					s, _ = advancingSpan(s)
				}
				for _, cols := range residualColumns {
					x, ys, den := draw(n*cols), draw(m*cols), draw(m)
					for j := range den {
						if rng.Intn(2) == 0 {
							den[j] = math.Max(1e-10, rng.Float64())
						}
					}
					vec, ref := make([]float64, 2*cols), make([]float64, 2*cols)
					for i := range vec {
						vec[i], ref[i] = sentinel, sentinel
					}
					residualSums4AVX2(s.start, s.vals, x, ys, den, vec[:cols], vec[cols:])
					s.residualSums(x, ys, den, ref[:cols], ref[cols:], 0)
					what := fmt.Sprintf("residual sums, %d rows, %d columns (advancing %v), block of %d", m, n, sorted, cols)
					checkVectorColumns(t, what+" rss", vec[:cols], ref[:cols], sentinel)
					checkVectorColumns(t, what+" wss", vec[cols:], ref[cols:], sentinel)
					nonFinite += countNonFinite(ref)
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8, 21} {
		for _, cols := range residualColumns {
			bc := &BandCholesky{n: n, k: 3, l: draw(4 * n)}
			b, x := draw(n*cols), draw(n*cols)
			vec, ref := append([]float64(nil), x...), append([]float64(nil), x...)
			forward3AVX2(bc.l, b, vec, cols)
			bc.forward3(b, ref, cols, 0)
			checkSolveColumns(t, fmt.Sprintf("forward rows, n=%d, block of %d", n, cols), vec, ref, x, cols)
			nonFinite += countNonFinite(ref)

			vec, ref = append(vec[:0], x...), append(ref[:0], x...)
			back3AVX2(bc.l, vec, cols)
			bc.back3(ref, cols, 0)
			checkSolveColumns(t, fmt.Sprintf("back rows, n=%d, block of %d", n, cols), vec, ref, x, cols)
			nonFinite += countNonFinite(ref)
		}
	}
	if nonFinite == 0 {
		t.Error("no Go body result was ±Inf or NaN: the overflowing lanes went unchecked")
	}
	t.Logf("%d Go body results were ±Inf or NaN", nonFinite)
}

// checkVectorColumns checks one row of a block's sums: the vector body
// wrote the whole groups of four bitwise as the Go body did, and left
// the rest at sentinel.
func checkVectorColumns(t *testing.T, what string, vec, ref []float64, sentinel float64) {
	t.Helper()
	c4 := len(vec) &^ 3
	assertBitwise(t, what, vec[:c4], ref[:c4])
	for c, v := range vec[c4:] {
		if math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("%s: tail column %d written: %v", what, c4+c, v)
		}
	}
}

// checkSolveColumns checks a band sweep over n×cols right-hand sides
// that started as x: the vector body solved the whole groups of four
// bitwise as the Go body did, and left the other columns as they were.
func checkSolveColumns(t *testing.T, what string, vec, ref, x []float64, cols int) {
	t.Helper()
	c4 := cols &^ 3
	for i := 0; i < len(x); i += cols {
		assertBitwise(t, fmt.Sprintf("%s, row %d", what, i/cols), vec[i:i+c4], ref[i:i+c4])
		assertBitwise(t, fmt.Sprintf("%s, row %d tail", what, i/cols), vec[i+c4:i+cols], x[i+c4:i+cols])
	}
}

func countNonFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			n++
		}
	}
	return n
}
