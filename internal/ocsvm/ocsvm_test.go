package ocsvm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func cloud(rng *rand.Rand, n, dim int, scale float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func TestKernels(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, -1}
	if got := (Linear{}).Eval(x, y); got != 1 {
		t.Fatalf("linear = %g want 1", got)
	}
	rbf := RBF{Gamma: 0.5}
	// ‖x−y‖² = 4 + 9 = 13 → exp(−6.5).
	if got := rbf.Eval(x, y); math.Abs(got-math.Exp(-6.5)) > 1e-12 {
		t.Fatalf("rbf = %g", got)
	}
	if rbf.Eval(x, x) != 1 {
		t.Fatal("rbf self-similarity must be 1")
	}
	p := Poly{Degree: 2, Gamma: 1, Coef0: 1}
	if got := p.Eval(x, y); got != 4 { // (1+1)² = 4
		t.Fatalf("poly = %g want 4", got)
	}
}

func TestKernelSymmetryProperty(t *testing.T) {
	f := func(a, b [3]float64) bool {
		x, y := a[:], b[:]
		for _, k := range []Kernel{RBF{Gamma: 0.3}, Linear{}, Poly{Degree: 3, Gamma: 0.5, Coef0: 1}} {
			if math.Abs(k.Eval(x, y)-k.Eval(y, x)) > 1e-9*(1+math.Abs(k.Eval(x, y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaScale(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	g := GammaScale(x)
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("gamma = %g", g)
	}
	// Constant data: fallback 1/d.
	c := [][]float64{{5, 5}, {5, 5}}
	if got := GammaScale(c); got != 0.5 {
		t.Fatalf("constant gamma = %g want 0.5", got)
	}
	if GammaScale(nil) != 1 {
		t.Fatal("empty gamma should be 1")
	}
}

// fit trains a model on x, failing the test on an error.
func fit(t testing.TB, opt Options, x [][]float64) *Model {
	t.Helper()
	m, err := opt.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Model)
}

func TestFitValidation(t *testing.T) {
	var opt Options
	if _, err := opt.Fit(nil); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := opt.Fit([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged features must fail")
	}
	if _, err := (Options{Nu: 1.5}).Fit([][]float64{{1}, {2}}); !errors.Is(err, ErrOptions) {
		t.Fatalf("err = %v want ErrOptions", err)
	}
}

func TestDualFeasibilityKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := cloud(rng, 60, 2, 1)
	nu := 0.2
	m := fit(t, Options{Nu: nu}, x)
	// Σα = 1 and 0 ≤ α ≤ 1/(νn).
	c := 1 / (nu * float64(len(x)))
	var sum float64
	for _, a := range m.alpha {
		if a < -1e-12 || a > c+1e-12 {
			t.Fatalf("alpha %g outside [0, %g]", a, c)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σα = %g want 1", sum)
	}
}

func TestNuControlsRejectionFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := cloud(rng, 200, 2, 1)
	for _, nu := range []float64{0.1, 0.3} {
		m := fit(t, Options{Nu: nu}, x)
		var rejected int
		for _, xi := range x {
			d, err := m.Decision(xi)
			if err != nil {
				t.Fatal(err)
			}
			if d < 0 {
				rejected++
			}
		}
		frac := float64(rejected) / float64(len(x))
		// ν upper-bounds the training rejection fraction asymptotically;
		// allow generous slack for the finite sample.
		if frac > nu+0.12 {
			t.Fatalf("nu=%g: training rejection fraction %g too high", nu, frac)
		}
	}
}

func TestOutlierScoresHigherThanInliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := cloud(rng, 150, 2, 1)
	m := fit(t, Options{Nu: 0.1}, x)
	far, err := m.Score([]float64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	center, err := m.Score([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if far <= center {
		t.Fatalf("outlier score %g <= center score %g", far, center)
	}
	// The far point must be rejected by the decision function.
	d, _ := m.Decision([]float64{8, 8})
	if d >= 0 {
		t.Fatalf("decision(far) = %g want < 0", d)
	}
}

func TestSupportVectorFractionAtLeastNu(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := cloud(rng, 100, 2, 1)
	nu := 0.25
	m := fit(t, Options{Nu: nu}, x)
	frac := float64(m.SupportVectors()) / float64(len(x))
	if frac < nu-0.05 {
		t.Fatalf("support fraction %g < nu %g (Schölkopf bound)", frac, nu)
	}
}

func TestScoreDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := fit(t, Options{}, cloud(rng, 30, 3, 1))
	if _, err := m.Score([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := cloud(rng, 50, 2, 1)
	m := fit(t, Options{}, x)
	batch, err := m.ScoreBatch(x[:7])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		s, err := m.Score(x[i])
		if err != nil || s != batch[i] {
			t.Fatal("batch and single scoring disagree")
		}
	}
}

func TestLinearKernelSeparatesShiftedCloud(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Points around (5,5); origin should be an outlier under RBF.
	x := cloud(rng, 100, 2, 0.5)
	for i := range x {
		x[i][0] += 5
		x[i][1] += 5
	}
	m := fit(t, Options{Nu: 0.1, Kernel: RBF{Gamma: 0.5}}, x)
	d, err := m.Decision([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d >= 0 {
		t.Fatalf("origin should be outside the support region, decision = %g", d)
	}
}

func TestSMOTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := cloud(rng, 120, 4, 1)
	m := fit(t, Options{Nu: 0.15, MaxIter: 100000}, x)
	if m.Iterations >= 100000 {
		t.Fatalf("SMO hit the iteration cap (%d)", m.Iterations)
	}
}
