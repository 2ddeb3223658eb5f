package bspline

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	cases := []struct {
		dim, order int
		lo, hi     float64
	}{
		{3, 4, 0, 1},          // dim < order
		{4, 0, 0, 1},          // order < 1
		{4, 4, 1, 1},          // empty domain
		{4, 4, 2, 1},          // reversed domain
		{4, 4, math.NaN(), 1}, // NaN bound
	}
	for _, c := range cases {
		if _, err := New(c.dim, c.order, c.lo, c.hi); !errors.Is(err, ErrBasis) {
			t.Fatalf("New(%d,%d,%g,%g) err = %v want ErrBasis", c.dim, c.order, c.lo, c.hi, err)
		}
	}
}

func TestKnotVectorClamped(t *testing.T) {
	b, err := New(6, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	knots := b.Knots()
	if len(knots) != 10 {
		t.Fatalf("knot count = %d want 10", len(knots))
	}
	for i := 0; i < 4; i++ {
		if knots[i] != 0 || knots[len(knots)-1-i] != 1 {
			t.Fatalf("knots not clamped: %v", knots)
		}
	}
	// Two interior knots at 1/3 and 2/3.
	if !almostEqual(knots[4], 1.0/3, 1e-12) || !almostEqual(knots[5], 2.0/3, 1e-12) {
		t.Fatalf("interior knots = %v", knots[4:6])
	}
}

func TestPartitionOfUnityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 1 + rng.Intn(5)
		dim := order + rng.Intn(8)
		b, err := New(dim, order, -2, 3)
		if err != nil {
			return false
		}
		out := make([]float64, dim)
		for trial := 0; trial < 10; trial++ {
			tt := -2 + 5*rng.Float64()
			b.Eval(tt, 0, out)
			var sum float64
			for _, v := range out {
				if v < -1e-12 {
					return false // B-splines are non-negative
				}
				sum += v
			}
			if !almostEqual(sum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalClampsOutsideDomain(t *testing.T) {
	b, err := NewCubic(6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]float64, 6)
	outside := make([]float64, 6)
	b.Eval(0, 0, at)
	b.Eval(-5, 0, outside)
	for i := range at {
		if at[i] != outside[i] {
			t.Fatal("Eval below domain must clamp to lo")
		}
	}
}

func TestDerivativeMatchesFiniteDifference(t *testing.T) {
	b, err := NewCubic(9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	buf0 := make([]float64, 9)
	buf1 := make([]float64, 9)
	buf2 := make([]float64, 9)
	for _, tt := range []float64{0.13, 0.35, 0.5, 0.77, 0.91} {
		b.Eval(tt, 1, buf0)
		b.Eval(tt+h, 0, buf1)
		b.Eval(tt-h, 0, buf2)
		for l := 0; l < 9; l++ {
			fd := (buf1[l] - buf2[l]) / (2 * h)
			if !almostEqual(buf0[l], fd, 1e-4*(1+math.Abs(fd))) {
				t.Fatalf("D1 basis %d at %g: analytic %g vs fd %g", l, tt, buf0[l], fd)
			}
		}
	}
}

func TestSecondDerivativeMatchesFiniteDifference(t *testing.T) {
	b, err := NewCubic(8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-4
	d2 := make([]float64, 8)
	p := make([]float64, 8)
	m := make([]float64, 8)
	c := make([]float64, 8)
	// Stay away from the interior knots (multiples of 0.2): the third
	// derivative jumps there and central differences pick up the jump.
	for _, tt := range []float64{0.23, 0.45, 0.67} {
		b.Eval(tt, 2, d2)
		b.Eval(tt+h, 0, p)
		b.Eval(tt-h, 0, m)
		b.Eval(tt, 0, c)
		for l := 0; l < 8; l++ {
			fd := (p[l] - 2*c[l] + m[l]) / (h * h)
			if !almostEqual(d2[l], fd, 1e-3*(1+math.Abs(fd))) {
				t.Fatalf("D2 basis %d at %g: analytic %g vs fd %g", l, tt, d2[l], fd)
			}
		}
	}
}

func TestDerivativeBeyondDegreeIsZero(t *testing.T) {
	b, err := New(5, 3, 0, 1) // quadratic splines
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 5)
	b.Eval(0.4, 3, out)
	for _, v := range out {
		if v != 0 {
			t.Fatalf("3rd derivative of quadratic spline = %v, want zeros", out)
		}
	}
}

func TestEvalPanicsOnBadOut(t *testing.T) {
	b, _ := NewCubic(6, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong out length")
		}
	}()
	b.Eval(0.5, 0, make([]float64, 5))
}

func TestLocalSupport(t *testing.T) {
	// A cubic basis function vanishes outside the span of order+1 knots.
	b, err := NewCubic(10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 10)
	b.Eval(0.05, 0, out)
	// Near the left end only the first few functions are active.
	for l := 5; l < 10; l++ {
		if out[l] != 0 {
			t.Fatalf("basis %d should vanish near t=0.05, got %g", l, out[l])
		}
	}
}

func TestBreakpointsDistinctIncreasing(t *testing.T) {
	b, err := NewCubic(8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	bps := b.Breakpoints()
	if bps[0] != 0 || bps[len(bps)-1] != 2 {
		t.Fatalf("breakpoints endpoints wrong: %v", bps)
	}
	for i := 1; i < len(bps); i++ {
		if bps[i] <= bps[i-1] {
			t.Fatalf("breakpoints not strictly increasing: %v", bps)
		}
	}
}

func TestSplineReproducesPolynomial(t *testing.T) {
	// Cubic splines reproduce cubics exactly: fit coefficients via
	// interpolation at Greville-like sites is overkill; instead verify the
	// projection residual through a least-squares design solve in the fda
	// package is near zero — here just check that some coefficient combo
	// can represent f(t) = t by evaluating the quasi-interpolant property
	// Σ ξ_l B_l(t) = t with ξ the Greville abscissae.
	order := 4
	dim := 9
	b, err := New(dim, order, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	knots := b.Knots()
	grev := make([]float64, dim)
	for l := 0; l < dim; l++ {
		var s float64
		for j := 1; j < order; j++ {
			s += knots[l+j]
		}
		grev[l] = s / float64(order-1)
	}
	out := make([]float64, dim)
	for _, tt := range []float64{0, 0.21, 0.48, 0.73, 1} {
		b.Eval(tt, 0, out)
		var val float64
		for l := 0; l < dim; l++ {
			val += grev[l] * out[l]
		}
		if !almostEqual(val, tt, 1e-10) {
			t.Fatalf("Greville identity failed at %g: %g", tt, val)
		}
	}
}

// refDersBasisFuns is the derivative recursion of Piegl & Tiller (A2.3)
// in its table form: fresh [][]float64 tables per call, every
// derivative row 0..n computed and scaled. It is the bitwise reference
// for dersBasisFuns.
func refDersBasisFuns(b *BSpline, span int, t float64, n int) [][]float64 {
	p := b.order - 1
	u := b.knots
	ndu := make([][]float64, p+1)
	for i := range ndu {
		ndu[i] = make([]float64, p+1)
	}
	ndu[0][0] = 1
	left := make([]float64, p+1)
	right := make([]float64, p+1)
	for j := 1; j <= p; j++ {
		left[j] = t - u[span+1-j]
		right[j] = u[span+j] - t
		var saved float64
		for r := 0; r < j; r++ {
			ndu[j][r] = right[r+1] + left[j-r]
			var temp float64
			if ndu[j][r] != 0 {
				temp = ndu[r][j-1] / ndu[j][r]
			}
			ndu[r][j] = saved + right[r+1]*temp
			saved = left[j-r] * temp
		}
		ndu[j][j] = saved
	}
	ders := make([][]float64, n+1)
	for i := range ders {
		ders[i] = make([]float64, p+1)
	}
	for j := 0; j <= p; j++ {
		ders[0][j] = ndu[j][p]
	}
	a := [2][]float64{make([]float64, p+1), make([]float64, p+1)}
	for r := 0; r <= p; r++ {
		s1, s2 := 0, 1
		a[0][0] = 1
		for k := 1; k <= n; k++ {
			var d float64
			rk := r - k
			pk := p - k
			if r >= k {
				if ndu[pk+1][rk] != 0 {
					a[s2][0] = a[s1][0] / ndu[pk+1][rk]
				} else {
					a[s2][0] = 0
				}
				d = a[s2][0] * ndu[rk][pk]
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
				if ndu[pk+1][rk+j] != 0 {
					a[s2][j] = (a[s1][j] - a[s1][j-1]) / ndu[pk+1][rk+j]
				} else {
					a[s2][j] = 0
				}
				d += a[s2][j] * ndu[rk+j][pk]
			}
			if r <= pk {
				if ndu[pk+1][r] != 0 {
					a[s2][k] = -a[s1][k-1] / ndu[pk+1][r]
				} else {
					a[s2][k] = 0
				}
				d += a[s2][k] * ndu[r][pk]
			}
			ders[k][r] = d
			s1, s2 = s2, s1
		}
	}
	r := float64(p)
	for k := 1; k <= n; k++ {
		for j := 0; j <= p; j++ {
			ders[k][j] *= r
		}
		r *= float64(p - k)
	}
	return ders
}

// refEval is Eval on top of refDersBasisFuns.
func refEval(b *BSpline, t float64, deriv int) []float64 {
	out := make([]float64, b.dim)
	degree := b.order - 1
	if deriv > degree {
		return out
	}
	t = math.Max(b.lo, math.Min(b.hi, t))
	span := b.findSpan(t)
	ders := refDersBasisFuns(b, span, t, deriv)
	copy(out[span-degree:], ders[deriv])
	return out
}

// TestEvalMatchesReferenceBitwise pins the flat-scratch evaluator to the
// table-based recursion it replaced, bit for bit, on both sides of the
// stack/heap scratch boundary: orders 1–12, every derivative 0..order,
// and t on every knot, inside every span, at both ends and clamped from
// outside the domain.
func TestEvalMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for order := 1; order <= 12; order++ {
		for _, extra := range []int{0, 1, 7} {
			dim := order + extra
			b, err := New(dim, order, -1.5, 2.25)
			if err != nil {
				t.Fatal(err)
			}
			ts := []float64{-1.5, 2.25, -40, 1e9, math.Nextafter(-1.5, -2), math.Nextafter(2.25, 3)}
			bps := b.Breakpoints()
			for i, k := range bps {
				ts = append(ts, k, math.Nextafter(k, -2), math.Nextafter(k, 3))
				if i+1 < len(bps) {
					ts = append(ts, (k+bps[i+1])/2, k+rng.Float64()*(bps[i+1]-k))
				}
			}
			full := make([]float64, dim)
			compact := make([]float64, order)
			for _, x := range ts {
				for deriv := 0; deriv <= order; deriv++ {
					want := refEval(b, x, deriv)
					b.Eval(x, deriv, full)
					start := b.EvalNonzero(x, deriv, compact)
					for l := range want {
						var c float64
						if l >= start && l < start+order {
							c = compact[l-start]
						}
						if math.Float64bits(full[l]) != math.Float64bits(want[l]) || math.Float64bits(c) != math.Float64bits(want[l]) {
							t.Fatalf("order=%d dim=%d deriv=%d t=%v basis %d: Eval %v EvalNonzero %v, reference %v",
								order, dim, deriv, x, l, full[l], c, want[l])
						}
					}
				}
			}
		}
	}
}

// TestEvalAllocatesNothing: up to the stack-scratch order, evaluation
// runs without a heap allocation.
func TestEvalAllocatesNothing(t *testing.T) {
	b, err := New(30, dersStackOrder, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, b.Dim())
	compact := make([]float64, b.Order())
	if n := testing.AllocsPerRun(100, func() {
		b.Eval(0.37, 2, out)
		b.EvalNonzero(0.61, 1, compact)
	}); n != 0 {
		t.Fatalf("order-%d evaluation allocates %v times per call, want 0", b.Order(), n)
	}
}
