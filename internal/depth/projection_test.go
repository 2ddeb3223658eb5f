package depth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSDOUnivariateExact(t *testing.T) {
	// For p = 1, SDO(x) = |x − median| / MAD exactly.
	points := [][]float64{{1}, {2}, {3}, {4}, {100}}
	got, err := SDO(points, ProjectionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1, 2, 3, 4, 100}
	med := stats.Median(xs)
	mad := stats.MAD(xs)
	for i, x := range xs {
		want := math.Abs(x-med) / mad
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("SDO[%d] = %g want %g", i, got[i], want)
		}
	}
}

func TestSDOFlagsMultivariateOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := make([][]float64, 0, 101)
	for i := 0; i < 100; i++ {
		points = append(points, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	points = append(points, []float64{6, 6})
	sdo, err := SDO(points, ProjectionOptions{Directions: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := sdo[len(sdo)-1]
	var maxIn float64
	for _, v := range sdo[:100] {
		if v > maxIn {
			maxIn = v
		}
	}
	if out <= maxIn {
		t.Fatalf("outlier SDO %g not above all inliers (max %g)", out, maxIn)
	}
}

func TestSDOCorrelationOutlier(t *testing.T) {
	// Points on the line y = x; a point with y = −x magnitude-typical in
	// both coordinates must still be flagged: only oblique projections
	// expose it, which is the reason Dir.out uses random directions.
	rng := rand.New(rand.NewSource(4))
	points := make([][]float64, 0, 81)
	for i := 0; i < 80; i++ {
		v := rng.NormFloat64()
		points = append(points, []float64{v, v + 0.05*rng.NormFloat64()})
	}
	points = append(points, []float64{1.5, -1.5})
	sdo, err := SDO(points, ProjectionOptions{Directions: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := sdo[len(sdo)-1]
	med := stats.Median(sdo[:80])
	if out < 5*med {
		t.Fatalf("correlation outlier SDO %g not ≫ inlier median %g", out, med)
	}
}

func TestSDOErrors(t *testing.T) {
	if _, err := SDO(nil, ProjectionOptions{}); !errors.Is(err, ErrDepth) {
		t.Fatal("empty cloud must fail")
	}
	if _, err := SDO([][]float64{{1, 2}, {1}}, ProjectionOptions{}); !errors.Is(err, ErrDepth) {
		t.Fatal("ragged cloud must fail")
	}
	if _, err := SDO([][]float64{{}, {}}, ProjectionOptions{}); !errors.Is(err, ErrDepth) {
		t.Fatal("zero-dimension points must fail")
	}
}

func TestProjectionDepthRange(t *testing.T) {
	f := func(sdo float64) bool {
		if sdo < 0 || math.IsNaN(sdo) || math.IsInf(sdo, 0) {
			return true
		}
		pd := ProjectionDepth(sdo)
		return pd > 0 && pd <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if ProjectionDepth(0) != 1 {
		t.Fatal("zero outlyingness must give depth 1")
	}
}

func TestDirectionSetIncludesAxes(t *testing.T) {
	dirs := directionSet(3, ProjectionOptions{Directions: 10, Seed: 1})
	if len(dirs) != 13 {
		t.Fatalf("direction count = %d want 13 (3 axes + 10 random)", len(dirs))
	}
	for i := 0; i < 3; i++ {
		if dirs[i][i] != 1 {
			t.Fatalf("axis %d missing: %v", i, dirs[i])
		}
	}
	// All unit norm.
	for i, u := range dirs {
		var n float64
		for _, v := range u {
			n += v * v
		}
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("direction %d has norm² %g", i, n)
		}
	}
	// p = 1 is the single axis.
	if d1 := directionSet(1, ProjectionOptions{}); len(d1) != 1 || d1[0][0] != 1 {
		t.Fatalf("p=1 directions = %v", d1)
	}
}
