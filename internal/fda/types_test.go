package fda

import (
	"errors"
	"math"
	"testing"
)

func validSample() Sample {
	return Sample{
		Times:  []float64{0, 0.5, 1},
		Values: [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
}

func TestNewSampleValid(t *testing.T) {
	s, err := NewSample(validSample().Times, validSample().Values)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 2 || s.Len() != 3 {
		t.Fatalf("Dim/Len = %d/%d want 2/3", s.Dim(), s.Len())
	}
}

func TestSampleValidateErrors(t *testing.T) {
	cases := map[string]Sample{
		"no points":       {Times: nil, Values: [][]float64{{1}}},
		"no params":       {Times: []float64{0}, Values: nil},
		"non-increasing":  {Times: []float64{0, 0}, Values: [][]float64{{1, 2}}},
		"decreasing":      {Times: []float64{1, 0}, Values: [][]float64{{1, 2}}},
		"length mismatch": {Times: []float64{0, 1}, Values: [][]float64{{1}}},
		"NaN value":       {Times: []float64{0, 1}, Values: [][]float64{{1, math.NaN()}}},
		"infinite value":  {Times: []float64{0, 1}, Values: [][]float64{{1, math.Inf(1)}}},
		"NaN time":        {Times: []float64{math.NaN()}, Values: [][]float64{{1}}},
		"-Inf time":       {Times: []float64{math.Inf(-1), 0, 1}, Values: [][]float64{{1, 2, 3}}},
		"+Inf time":       {Times: []float64{0, 1, math.Inf(1)}, Values: [][]float64{{1, 2, 3}}},
	}
	for name, s := range cases {
		if err := s.Validate(); !errors.Is(err, ErrData) {
			t.Fatalf("%s: err = %v want ErrData", name, err)
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	d := Dataset{Samples: []Sample{validSample(), validSample()}, Labels: []int{0, 1}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dataset{}).Validate(); !errors.Is(err, ErrData) {
		t.Fatal("empty dataset must fail")
	}
	bad := Dataset{Samples: []Sample{validSample()}, Labels: []int{0, 1}}
	if err := bad.Validate(); !errors.Is(err, ErrData) {
		t.Fatal("label length mismatch must fail")
	}
	mixed := Dataset{Samples: []Sample{
		validSample(),
		{Times: []float64{0, 1}, Values: [][]float64{{1, 2}}},
	}}
	if err := mixed.Validate(); !errors.Is(err, ErrData) {
		t.Fatal("dimension mismatch across samples must fail")
	}
}

func TestSubsetCarriesLabels(t *testing.T) {
	d := Dataset{Samples: []Sample{validSample(), validSample(), validSample()}, Labels: []int{0, 1, 0}}
	sub := d.Subset([]int{2, 1})
	if sub.Len() != 2 || sub.Labels[0] != 0 || sub.Labels[1] != 1 {
		t.Fatalf("Subset labels = %v", sub.Labels)
	}
	noLabels := Dataset{Samples: d.Samples}
	if sub := noLabels.Subset([]int{0}); sub.Labels != nil {
		t.Fatal("Subset must not invent labels")
	}
}

func TestDomain(t *testing.T) {
	d := Dataset{Samples: []Sample{
		{Times: []float64{0.2, 0.8}, Values: [][]float64{{1, 2}}},
		{Times: []float64{0, 0.5}, Values: [][]float64{{1, 2}}},
	}}
	lo, hi := d.Domain()
	if lo != 0 || hi != 0.8 {
		t.Fatalf("Domain = %g,%g want 0,0.8", lo, hi)
	}
}

func TestUniformGrid(t *testing.T) {
	g := UniformGrid(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid = %v", g)
		}
	}
	if UniformGrid(0, 1, 0) != nil {
		t.Fatal("m=0 should give nil")
	}
	if g := UniformGrid(2, 4, 1); len(g) != 1 || g[0] != 3 {
		t.Fatalf("m=1 should give the midpoint, got %v", g)
	}
}

func TestAugmentSquare(t *testing.T) {
	d := Dataset{Samples: []Sample{{
		Times:  []float64{0, 1},
		Values: [][]float64{{2, -3}},
	}}, Labels: []int{1}}
	aug := Augment(d, SquareAugment)
	s := aug.Samples[0]
	if s.Dim() != 2 {
		t.Fatalf("augmented dim = %d want 2", s.Dim())
	}
	if s.Values[1][0] != 4 || s.Values[1][1] != 9 {
		t.Fatalf("squares = %v", s.Values[1])
	}
	if aug.Labels[0] != 1 {
		t.Fatal("labels must carry through augmentation")
	}
	// Original untouched.
	if d.Samples[0].Dim() != 1 {
		t.Fatal("Augment must not mutate the input dataset")
	}
}
