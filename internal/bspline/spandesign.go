package bspline

import (
	"fmt"

	"repro/internal/linalg"
)

// EvalNonzero computes the deriv-th derivative of the basis functions
// that do not vanish at t — at most Order of them, by local support —
// writing them into out (length >= Order) and returning the index of
// the first: basis function start+j has value out[j], every other basis
// function is zero at t. Clamping of t to the domain and the vanishing
// of derivatives of order >= Order behave exactly as in Eval; Eval's
// full-length output is the scatter of this compact form.
func (b *BSpline) EvalNonzero(t float64, deriv int, out []float64) (start int) {
	k := b.order
	if len(out) < k {
		panic(fmt.Sprintf("bspline: EvalNonzero out length %d, want >= %d", len(out), k))
	}
	for i := 0; i < k; i++ {
		out[i] = 0
	}
	if deriv < 0 {
		panic(fmt.Sprintf("bspline: negative derivative order %d", deriv))
	}
	degree := k - 1
	if deriv > degree {
		return 0
	}
	if t < b.lo {
		t = b.lo
	}
	if t > b.hi {
		t = b.hi
	}
	span := b.findSpan(t)
	b.dersBasisFuns(span, t, deriv, out[:k])
	return span - degree
}

// NewSpanDesign returns the design matrix Φ[j][l] = D^deriv φ_l(ts[j])
// (Eq. 3 of the paper uses deriv = 0) in span-compact form. A B-spline
// row keeps only the Order values that can be nonzero at ts[j], by
// local support, starting at the first one's column; any other basis
// keeps its full row. Every entry outside a row's window is +0, as in
// the dense matrix. The internal/fda smoother builds its systems on
// these designs, and its basis cache memoizes the ones EvalGrid uses
// per (basis, grid, deriv).
func NewSpanDesign(b Basis, ts []float64, deriv int) *linalg.SpanMatrix {
	bs, spline := b.(*BSpline)
	w := b.Dim()
	if spline {
		w = bs.order
	}
	start := make([]int, len(ts))
	vals := make([]float64, len(ts)*w)
	for j, t := range ts {
		row := vals[j*w : (j+1)*w]
		if spline {
			start[j] = bs.EvalNonzero(t, deriv, row)
		} else {
			b.Eval(t, deriv, row)
		}
	}
	return linalg.NewSpanMatrix(b.Dim(), w, start, vals)
}
