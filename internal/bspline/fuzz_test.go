package bspline

import (
	"math"
	"testing"
)

// FuzzBSplineEval drives Eval and EvalNonzero with arbitrary evaluation
// points (inside the domain, exactly at knots, outside the domain,
// non-finite), orders 1–12 (both sides of the stack-scratch bound) and
// every derivative 0..order, guarding the findSpan edge cases the basis
// cache now hits far more often: t at the clamped endpoints, t on
// interior knots, and t just below/above the domain.
//
// Invariants checked:
//   - Eval never panics for valid (dim, order, deriv) and finite output
//     buffers, and produces finite values for finite t;
//   - the order-0 basis is a partition of unity everywhere (clamping
//     maps outside points onto the domain);
//   - EvalNonzero is the exact scatter of Eval and its span start stays
//     inside [0, dim-order];
//   - Eval equals the table-based reference recursion bit for bit.
func FuzzBSplineEval(f *testing.F) {
	f.Add(uint8(4), uint8(8), 0.5, uint8(0))
	f.Add(uint8(4), uint8(4), 0.0, uint8(1))   // minimal cubic basis, left endpoint
	f.Add(uint8(4), uint8(9), 1.0, uint8(2))   // right endpoint
	f.Add(uint8(1), uint8(3), 0.25, uint8(0))  // piecewise-constant basis on a knot
	f.Add(uint8(6), uint8(20), -3.5, uint8(2)) // clamped below the domain
	f.Add(uint8(4), uint8(12), 4.75, uint8(1)) // clamped above the domain
	f.Add(uint8(4), uint8(13), 1.0/3.0, uint8(0))
	f.Add(uint8(11), uint8(5), 0.4, uint8(9)) // order 12: heap scratch
	f.Fuzz(func(t *testing.T, orderRaw, dimRaw uint8, x float64, derivRaw uint8) {
		order := 1 + int(orderRaw)%12
		dim := order + int(dimRaw)%24
		deriv := int(derivRaw) % (order + 1)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Eval clamps infinities to the endpoints; NaN propagates by
			// design. Exercise the clamp path with a representative huge
			// value instead of asserting on NaN arithmetic.
			x = math.Copysign(1e308, x)
		}
		b, err := New(dim, order, 0, 1)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", dim, order, err)
		}
		full := make([]float64, dim)
		b.Eval(x, deriv, full)
		var sum float64
		for l, v := range full {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("dim=%d order=%d deriv=%d t=%g: non-finite basis value %g at %d", dim, order, deriv, x, v, l)
			}
			sum += v
		}
		if deriv == 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dim=%d order=%d t=%g: partition of unity sum %g", dim, order, x, sum)
		}
		if deriv >= order {
			for l, v := range full {
				if v != 0 {
					t.Fatalf("dim=%d order=%d deriv=%d t=%g: derivative beyond degree non-zero at %d: %g", dim, order, deriv, x, l, v)
				}
			}
		}
		for l, want := range refEval(b, x, deriv) {
			if math.Float64bits(full[l]) != math.Float64bits(want) {
				t.Fatalf("dim=%d order=%d deriv=%d t=%g basis %d: Eval %g, reference %g", dim, order, deriv, x, l, full[l], want)
			}
		}
		compact := make([]float64, order)
		start := b.EvalNonzero(x, deriv, compact)
		if start < 0 || start+order > dim {
			t.Fatalf("dim=%d order=%d deriv=%d t=%g: span start %d outside [0, %d]", dim, order, deriv, x, start, dim-order)
		}
		for l, want := range full {
			var got float64
			if l >= start && l < start+order {
				got = compact[l-start]
			}
			if got != want {
				t.Fatalf("dim=%d order=%d deriv=%d t=%g basis %d: EvalNonzero %g, Eval %g", dim, order, deriv, x, l, got, want)
			}
		}
	})
}
