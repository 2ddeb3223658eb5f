package depth

import (
	"fmt"
	"sort"
)

// BandDepth implements the modified band depth of López-Pintado & Romo
// (with bands of j = 2 curves), the foundation of the simplicial band
// depth for MFD the paper cites as [11]. MBD₂ of a curve is the fraction
// of (pair, grid point) combinations whose band contains the curve; for a
// multivariate sample the per-parameter depths are averaged, the marginal
// extension used in practice.
//
// The O(n·m + n log n) closed form is used: with pointwise ranks r_j(t)
// among the n reference curves (0-based), the count of bands containing
// the curve at t is r(t)·(n−1−r(t)) + n − 1, summed over t and divided by
// m·C(n,2).
type BandDepth struct {
	train [][][]float64 // n × p × m
	p, m  int
}

// NewBandDepth returns an unfitted band-depth scorer.
func NewBandDepth() *BandDepth { return &BandDepth{} }

// Fit memorises the reference curves.
func (b *BandDepth) Fit(train [][][]float64) error {
	if len(train) < 2 {
		return fmt.Errorf("depth: band depth needs >= 2 training samples: %w", ErrNotFitted)
	}
	p := len(train[0])
	if p == 0 {
		return fmt.Errorf("depth: band depth zero-parameter samples: %w", ErrDepth)
	}
	m := len(train[0][0])
	for i, s := range train {
		if len(s) != p {
			return fmt.Errorf("depth: band sample %d has %d parameters, want %d: %w", i, len(s), p, ErrDepth)
		}
		for k := range s {
			if len(s[k]) != m {
				return fmt.Errorf("depth: band sample %d parameter %d has %d points, want %d: %w", i, k, len(s[k]), m, ErrDepth)
			}
		}
	}
	b.train = train
	b.p = p
	b.m = m
	return nil
}

// Score returns 1 − MBD: higher means more outlying.
func (b *BandDepth) Score(sample [][]float64) (float64, error) {
	if b.train == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != b.p {
		return 0, fmt.Errorf("depth: band sample has %d parameters, want %d: %w", len(sample), b.p, ErrDepth)
	}
	n := len(b.train)
	pairs := float64(n*(n-1)) / 2
	var depth float64
	col := make([]float64, n)
	for k := 0; k < b.p; k++ {
		if len(sample[k]) != b.m {
			return 0, fmt.Errorf("depth: band sample parameter %d has %d points, want %d: %w", k, len(sample[k]), b.m, ErrDepth)
		}
		var total float64
		for j := 0; j < b.m; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.train[i][k][j]
			}
			sort.Float64s(col)
			v := sample[k][j]
			// below = #train strictly below v, above = #train strictly above.
			below := sort.SearchFloat64s(col, v)
			aboveStart := sort.Search(n, func(i int) bool { return col[i] > v })
			above := n - aboveStart
			equal := aboveStart - below
			// Bands from one curve below (or equal) and one above (or
			// equal): count pairs whose envelope contains v. Curves equal
			// to v can pair with anything.
			contained := float64(below*above) + float64(equal)*float64(n-1) - float64(equal*(equal-1))/2
			total += contained
		}
		depth += total / (float64(b.m) * pairs)
	}
	depth /= float64(b.p)
	return 1 - depth, nil
}

// ScoreBatch scores every sample.
func (b *BandDepth) ScoreBatch(samples [][][]float64) ([]float64, error) {
	out := make([]float64, len(samples))
	for i, s := range samples {
		v, err := b.Score(s)
		if err != nil {
			return nil, fmt.Errorf("depth: band sample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// FraimanMuniz implements the integrated univariate depth of Fraiman &
// Muniz (2001), the earliest functional depth (paper reference [6]):
// FM(x) = ∫ (1 − |½ − F_{n,t}(x(t))|) dt with F_{n,t} the pointwise
// empirical CDF of the reference curves, averaged over parameters for the
// multivariate case.
type FraimanMuniz struct {
	train [][][]float64
	p, m  int
}

// NewFraimanMuniz returns an unfitted Fraiman–Muniz scorer.
func NewFraimanMuniz() *FraimanMuniz { return &FraimanMuniz{} }

// Fit memorises the reference curves.
func (f *FraimanMuniz) Fit(train [][][]float64) error {
	if len(train) < 2 {
		return fmt.Errorf("depth: fraiman-muniz needs >= 2 training samples: %w", ErrNotFitted)
	}
	p := len(train[0])
	m := len(train[0][0])
	for i, s := range train {
		if len(s) != p {
			return fmt.Errorf("depth: fm sample %d has %d parameters, want %d: %w", i, len(s), p, ErrDepth)
		}
		for k := range s {
			if len(s[k]) != m {
				return fmt.Errorf("depth: fm sample %d parameter %d has %d points, want %d: %w", i, k, len(s[k]), m, ErrDepth)
			}
		}
	}
	f.train = train
	f.p = p
	f.m = m
	return nil
}

// Score returns 1 − FM depth: higher means more outlying.
func (f *FraimanMuniz) Score(sample [][]float64) (float64, error) {
	if f.train == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != f.p {
		return 0, fmt.Errorf("depth: fm sample has %d parameters, want %d: %w", len(sample), f.p, ErrDepth)
	}
	n := float64(len(f.train))
	var depth float64
	for k := 0; k < f.p; k++ {
		if len(sample[k]) != f.m {
			return 0, fmt.Errorf("depth: fm sample parameter %d has %d points, want %d: %w", k, len(sample[k]), f.m, ErrDepth)
		}
		var total float64
		for j := 0; j < f.m; j++ {
			v := sample[k][j]
			var le int
			for _, ref := range f.train {
				if ref[k][j] <= v {
					le++
				}
			}
			fn := float64(le) / n
			dev := 0.5 - fn
			if dev < 0 {
				dev = -dev
			}
			total += 1 - dev
		}
		depth += total / float64(f.m)
	}
	depth /= float64(f.p)
	return 1 - depth, nil
}

// ScoreBatch scores every sample.
func (f *FraimanMuniz) ScoreBatch(samples [][][]float64) ([]float64, error) {
	out := make([]float64, len(samples))
	for i, s := range samples {
		v, err := f.Score(s)
		if err != nil {
			return nil, fmt.Errorf("depth: fm sample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
