package bspline

import "fmt"

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

// SpanDesign is the span-compact form of a design matrix over a fixed
// grid: row j stores only the Order basis values that are non-zero at
// ts[j] plus the index of the first, so a dot product against a
// coefficient vector costs O(order) instead of O(dim). The compact dot
// accumulates the surviving terms in the same index order as the full
// dot over all Dim entries, so it is numerically identical to it
// (dropped terms contribute exact zeros).
type SpanDesign struct {
	k     int
	start []int
	vals  []float64 // row-major, len(ts) * k
}

// NewSpanDesign evaluates the deriv-th derivative of the basis on every
// grid point in compact form. The internal/fda basis cache memoizes
// these per (basis, grid, deriv), which is what makes repeated
// EvalGrid calls across samples allocation-free.
func NewSpanDesign(b *BSpline, ts []float64, deriv int) *SpanDesign {
	k := b.order
	d := &SpanDesign{k: k, start: make([]int, len(ts)), vals: make([]float64, len(ts)*k)}
	for j, t := range ts {
		d.start[j] = b.EvalNonzero(t, deriv, d.vals[j*k:(j+1)*k])
	}
	return d
}

// Dot returns the dot product of design row j with coef, the fitted
// value Σ_l coef_l · D^deriv φ_l(ts[j]) of Eq. 2.
func (d *SpanDesign) Dot(j int, coef []float64) float64 {
	base := d.start[j]
	row := d.vals[j*d.k : (j+1)*d.k]
	var s float64
	for r, v := range row {
		s += coef[base+r] * v
	}
	return s
}
