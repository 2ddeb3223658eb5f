package bspline

import (
	"fmt"
	"math"
)

// BSpline is a clamped B-spline basis of a given order (order = degree + 1)
// on [lo, hi] with uniformly spaced interior knots. With L basis functions
// of order k the knot vector has L + k entries: the endpoints repeated k
// times and L − k uniform interior knots, so the basis spans exactly the
// piecewise polynomials of degree k−1 with continuity C^{k−2} at the knots.
type BSpline struct {
	order int // k = degree + 1
	dim   int // L
	knots []float64
	lo    float64
	hi    float64
}

// New returns a clamped uniform B-spline basis with dim functions of the
// given order on [lo, hi]. It requires order >= 1, dim >= order and
// lo < hi. Order 4 (cubic) is the default choice throughout the paper.
func New(dim, order int, lo, hi float64) (*BSpline, error) {
	if order < 1 {
		return nil, fmt.Errorf("bspline: order %d < 1: %w", order, ErrBasis)
	}
	if dim < order {
		return nil, fmt.Errorf("bspline: dim %d < order %d: %w", dim, order, ErrBasis)
	}
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("bspline: invalid domain [%g, %g]: %w", lo, hi, ErrBasis)
	}
	nInterior := dim - order
	knots := make([]float64, dim+order)
	for i := 0; i < order; i++ {
		knots[i] = lo
		knots[len(knots)-1-i] = hi
	}
	for i := 1; i <= nInterior; i++ {
		knots[order-1+i] = lo + (hi-lo)*float64(i)/float64(nInterior+1)
	}
	return &BSpline{order: order, dim: dim, knots: knots, lo: lo, hi: hi}, nil
}

// NewCubic returns the order-4 (cubic) basis the paper uses.
func NewCubic(dim int, lo, hi float64) (*BSpline, error) { return New(dim, 4, lo, hi) }

// Dim returns the number of basis functions.
func (b *BSpline) Dim() int { return b.dim }

// Order returns the spline order (degree + 1).
func (b *BSpline) Order() int { return b.order }

// Domain returns the interval the basis is defined on.
func (b *BSpline) Domain() (lo, hi float64) { return b.lo, b.hi }

// Knots returns a copy of the full clamped knot vector.
func (b *BSpline) Knots() []float64 {
	out := make([]float64, len(b.knots))
	copy(out, b.knots)
	return out
}

// Breakpoints returns the distinct knot values: the panels on which every
// basis function is a polynomial.
func (b *BSpline) Breakpoints() []float64 {
	out := []float64{b.knots[0]}
	for _, k := range b.knots[1:] {
		if k > out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// findSpan returns the knot-span index i with knots[i] <= t < knots[i+1],
// clamping t to the domain and mapping t == hi to the last non-empty span.
func (b *BSpline) findSpan(t float64) int {
	k := b.order
	n := b.dim
	if t <= b.lo {
		return k - 1
	}
	if t >= b.hi {
		return n - 1
	}
	lo, hi := k-1, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t < b.knots[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// Eval writes the deriv-th derivative of all basis functions at t into
// out (length Dim). Derivatives of order >= spline order are identically
// zero. It implements the banded derivative algorithm of Piegl & Tiller
// (The NURBS Book, A2.3): only the `order` functions that are non-zero on
// the span containing t are computed.
func (b *BSpline) Eval(t float64, deriv int, out []float64) {
	if len(out) != b.dim {
		panic(fmt.Sprintf("bspline: Eval out length %d, want %d", len(out), b.dim))
	}
	for i := range out {
		out[i] = 0
	}
	if deriv < 0 {
		panic(fmt.Sprintf("bspline: negative derivative order %d", deriv))
	}
	degree := b.order - 1
	if deriv > degree {
		return // derivative of order > degree vanishes everywhere
	}
	if t < b.lo {
		t = b.lo
	}
	if t > b.hi {
		t = b.hi
	}
	span := b.findSpan(t)
	b.dersBasisFuns(span, t, deriv, out[span-degree:span+1])
}

// dersStackOrder is the largest spline order whose dersBasisFuns
// scratch fits the fixed stack buffer; higher orders use one heap slice.
const dersStackOrder = 8

// dersBasisFuns writes the n-th derivative of the degree+1 basis
// functions that do not vanish on the given span at t into out (length
// order): out[j] belongs to basis function span−degree+j. It is the
// derivative algorithm of Piegl & Tiller (The NURBS Book, A2.3) run in
// one flat, zeroed scratch array — on the stack up to dersStackOrder —
// so evaluation allocates nothing; only the requested derivative row is
// scaled by p!/(p−n)! and written out.
func (b *BSpline) dersBasisFuns(span int, t float64, n int, out []float64) {
	p := b.order - 1
	w := p + 1
	u := b.knots
	var stack [dersStackOrder * (dersStackOrder + 4)]float64
	var buf []float64
	if need := w * (w + 4); need <= len(stack) {
		buf = stack[:need]
	} else {
		buf = make([]float64, need)
	}
	// ndu[j*w+r]: knot differences below the diagonal, basis values of
	// rising degree on and above it.
	ndu := buf[:w*w]
	left := buf[w*w : w*w+w]
	right := buf[w*w+w : w*w+2*w]
	// Two alternating rows of derivative coefficients.
	a0 := buf[w*w+2*w : w*w+3*w]
	a1 := buf[w*w+3*w : w*w+4*w]
	ndu[0] = 1
	for j := 1; j <= p; j++ {
		left[j] = t - u[span+1-j]
		right[j] = u[span+j] - t
		var saved float64
		for r := 0; r < j; r++ {
			// Lower triangle: knot differences.
			ndu[j*w+r] = right[r+1] + left[j-r]
			var temp float64
			if ndu[j*w+r] != 0 {
				temp = ndu[r*w+j-1] / ndu[j*w+r]
			}
			// Upper triangle: basis values.
			ndu[r*w+j] = saved + right[r+1]*temp
			saved = left[j-r] * temp
		}
		ndu[j*w+j] = saved
	}
	if n == 0 {
		for j := 0; j <= p; j++ {
			out[j] = ndu[j*w+p]
		}
		return
	}
	for r := 0; r <= p; r++ {
		s1, s2 := a0, a1
		s1[0] = 1
		var d float64
		for k := 1; k <= n; k++ {
			d = 0
			rk := r - k
			pk := p - k
			if r >= k {
				if ndu[(pk+1)*w+rk] != 0 {
					s2[0] = s1[0] / ndu[(pk+1)*w+rk]
				} else {
					s2[0] = 0
				}
				d = s2[0] * ndu[rk*w+pk]
			}
			j1 := 1
			if rk < -1 {
				j1 = -rk
			}
			j2 := k - 1
			if r-1 > pk {
				j2 = p - r
			}
			for j := j1; j <= j2; j++ {
				if ndu[(pk+1)*w+rk+j] != 0 {
					s2[j] = (s1[j] - s1[j-1]) / ndu[(pk+1)*w+rk+j]
				} else {
					s2[j] = 0
				}
				d += s2[j] * ndu[(rk+j)*w+pk]
			}
			if r <= pk {
				if ndu[(pk+1)*w+r] != 0 {
					s2[k] = -s1[k-1] / ndu[(pk+1)*w+r]
				} else {
					s2[k] = 0
				}
				d += s2[k] * ndu[r*w+pk]
			}
			s1, s2 = s2, s1
		}
		out[r] = d
	}
	// Scale by p!/(p−n)!, the product taken in rising k as p·(p−1)·…
	fac := float64(p)
	for k := 1; k < n; k++ {
		fac *= float64(p - k)
	}
	for j := 0; j <= p; j++ {
		out[j] *= fac
	}
}
