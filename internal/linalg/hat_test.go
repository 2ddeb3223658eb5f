package linalg_test

import (
	"math"
	"testing"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// smoothingSystem returns the design Φ of a clamped B-spline basis on ts
// and the banded factor of ΦᵀΦ + λR + 1e-6·I, the system the smoother's
// hat diagonal is taken over, with the factor's storage.
func smoothingSystem(t testing.TB, dim, order int, ts []float64, lambda float64) (*linalg.SpanMatrix, *linalg.BandCholesky, []float64) {
	t.Helper()
	b, err := bspline.New(dim, order, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	phi := bspline.NewSpanDesign(b, ts, 0)
	r, err := bspline.PenaltyMatrix(b, min(2, order-1), max(1, order-2))
	if err != nil {
		t.Fatal(err)
	}
	k := order - 1
	band := make([]float64, dim*(k+1))
	if err := phi.GramBandInto(k, band); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dim; i++ {
		for j := max(0, i-k); j <= i; j++ {
			band[i*(k+1)+j-i+k] += lambda * r.At(i, j)
		}
		band[i*(k+1)+k] += 1e-6
	}
	bc, err := linalg.NewBandCholesky(dim, k, band)
	if err != nil {
		t.Fatal(err)
	}
	return phi, bc, band
}

// TestHatDiagBSplineDesignsBitwise: on real B-spline designs, with grid
// points on every knot (where a row's span carries exact zeros) and
// between them, HatDiag equals the reference recursion on the dense
// rows bit for bit, for every row count 1–9 and the sizes the
// smoother's default ladder picks.
func TestHatDiagBSplineDesignsBitwise(t *testing.T) {
	for _, order := range []int{1, 2, 4, 6} {
		for _, dim := range []int{order, order + 3, 21} {
			knots := make([]float64, 0, dim)
			for i := 0; i <= dim-order+1; i++ {
				knots = append(knots, float64(i)/float64(dim-order+1))
			}
			for m := 1; m <= 9; m++ {
				ts := make([]float64, m)
				for j := range ts {
					if j%2 == 0 {
						ts[j] = knots[(j/2)%len(knots)]
					} else {
						ts[j] = math.Mod(0.137*float64(j*j+1), 1)
					}
				}
				phi, bc, l := smoothingSystem(t, dim, order, ts, 1e-4)
				checkHat(t, order-1, phi, bc, l)
			}
			ts := make([]float64, 85)
			for j := range ts {
				ts[j] = float64(j) / 84
			}
			phi, bc, l := smoothingSystem(t, dim, order, ts, 1e-2)
			checkHat(t, order-1, phi, bc, l)
		}
	}
}

// denseRow returns row j of phi with its zeros written out.
func denseRow(phi *linalg.SpanMatrix, j int) []float64 {
	_, n := phi.Dims()
	row := make([]float64, n)
	start, vals := phi.Row(j)
	copy(row[start:], vals)
	return row
}

// checkHat checks HatDiag on one system of bandwidth k against
// linalg.RefHatDiag on the dense rows, which reads the factor from its
// storage l.
func checkHat(t *testing.T, k int, phi *linalg.SpanMatrix, bc *linalg.BandCholesky, l []float64) {
	t.Helper()
	m, n := phi.Dims()
	got := make([]float64, m)
	if err := bc.HatDiag(phi, got); err != nil {
		t.Fatal(err)
	}
	dense := linalg.NewDense(m, n)
	for j := 0; j < m; j++ {
		copy(dense.Row(j), denseRow(phi, j))
	}
	want := linalg.RefHatDiag(n, k, l, dense)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%dx%d design row %d: HatDiag %v, reference %v", m, n, j, got[j], want[j])
		}
	}
}

// BenchmarkHatDiag times the hat diagonal of the largest system of the
// benchmark model's default ladder (21 cubic functions, 85 points)
// through the kernel and through the per-row SolveInto+Dot loop it
// replaced.
func BenchmarkHatDiag(b *testing.B) {
	ts := make([]float64, 85)
	for j := range ts {
		ts[j] = float64(j) / 84
	}
	phi, bc, _ := smoothingSystem(b, 21, 4, ts, 1e-4)
	h := make([]float64, len(ts))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bc.HatDiag(phi, h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solveDot", func(b *testing.B) {
		rows := make([][]float64, len(h))
		for j := range rows {
			rows[j] = denseRow(phi, j)
		}
		sol := make([]float64, 21)
		for i := 0; i < b.N; i++ {
			for j, row := range rows {
				if err := bc.SolveInto(row, sol); err != nil {
					b.Fatal(err)
				}
				h[j] = linalg.Dot(row, sol)
			}
		}
	})
}
