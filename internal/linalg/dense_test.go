package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("entry (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %g want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At after Set = %g want 7", m.At(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range At")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestRowAliases(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(0)[1] = 5
	if m.At(0, 1) != 5 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 2)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent")
	}
}

func TestTranspose(t *testing.T) {
	m := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d want 3,2", r, c)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T content wrong: %v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomDense(rng, 4, 7)
	if !m.T().T().Equal(m, 0) {
		t.Fatal("T(T(m)) != m")
	}
}

// mustDense builds an r-by-c matrix from row-major values; a value
// count that does not match the shape is a fixture bug and panics.
func mustDense(r, c int, vals ...float64) *Dense {
	if len(vals) != r*c {
		panic("mustDense: value count does not match the shape")
	}
	m := NewDense(r, c)
	copy(m.data, vals)
	return m
}

func TestMulKnown(t *testing.T) {
	a := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	b := mustDense(3, 2, 7, 8, 9, 10, 11, 12)
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustDense(2, 2, 58, 64, 139, 154)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v want %v", got, want)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	if _, err := NewDense(2, 3).Mul(NewDense(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVecKnown(t *testing.T) {
	a := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v want [-2 -2]", got)
	}
}

func TestMulVecShapeMismatch(t *testing.T) {
	if _, err := NewDense(2, 3).MulVec([]float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMaxAbs(t *testing.T) {
	m := mustDense(2, 2, 1, -5, 3, 2)
	if m.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %g want 5", m.MaxAbs())
	}
	if NewDense(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs should be 0")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := mustDense(1, 1, 1.0)
	b := mustDense(1, 1, 1.0+1e-9)
	if !a.Equal(b, 1e-8) {
		t.Fatal("should be equal within tol")
	}
	if a.Equal(b, 1e-10) {
		t.Fatal("should differ beyond tol")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if s := mustDense(2, 2, 1, 2, 3, 4).String(); len(s) == 0 {
		t.Fatal("String empty")
	}
}

// Property: (A B) x == A (B x) for random shapes.
func TestMulAssociatesWithVector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randomDense(rng, n, k)
		b := randomDense(rng, k, m)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs, err := ab.MulVec(x)
		if err != nil {
			return false
		}
		bx, err := b.MulVec(x)
		if err != nil {
			return false
		}
		rhs, err := a.MulVec(bx)
		if err != nil {
			return false
		}
		for i := range lhs {
			if !almostEqual(lhs[i], rhs[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
