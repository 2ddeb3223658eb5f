package depth

import "sort"

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
	shape
	train [][][]float64 // n × p × m
}

// FitBandDepth returns the band-depth scorer of the reference curves
// train (n ≥ 2 samples × p × m).
func FitBandDepth(train [][][]float64) (*BandDepth, error) {
	s, err := trainShape(train, 2, 1)
	if err != nil {
		return nil, err
	}
	return &BandDepth{shape: s, train: train}, nil
}

// Score returns 1 − MBD: higher means more outlying.
func (b *BandDepth) Score(sample [][]float64) (float64, error) {
	if err := b.check(sample); err != nil {
		return 0, err
	}
	n := len(b.train)
	pairs := float64(n*(n-1)) / 2
	var depth float64
	col := make([]float64, n)
	for k := 0; k < b.p; k++ {
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
	return scoreBatch(samples, b.Score)
}

// FraimanMuniz implements the integrated univariate depth of Fraiman &
// Muniz (2001), the earliest functional depth (paper reference [6]):
// FM(x) = ∫ (1 − |½ − F_{n,t}(x(t))|) dt with F_{n,t} the pointwise
// empirical CDF of the reference curves, averaged over parameters for the
// multivariate case.
type FraimanMuniz struct {
	shape
	train [][][]float64
}

// FitFraimanMuniz returns the Fraiman–Muniz scorer of the reference
// curves train (n ≥ 2 samples × p × m).
func FitFraimanMuniz(train [][][]float64) (*FraimanMuniz, error) {
	s, err := trainShape(train, 2, 1)
	if err != nil {
		return nil, err
	}
	return &FraimanMuniz{shape: s, train: train}, nil
}

// Score returns 1 − FM depth: higher means more outlying.
func (f *FraimanMuniz) Score(sample [][]float64) (float64, error) {
	if err := f.check(sample); err != nil {
		return 0, err
	}
	n := float64(len(f.train))
	var depth float64
	for k := 0; k < f.p; k++ {
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
	return scoreBatch(samples, f.Score)
}
