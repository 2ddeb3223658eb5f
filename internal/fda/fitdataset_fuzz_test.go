package fda

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzFitDataset holds the grouped fit to the single-column loop it
// replaced (referenceFitSample), bit for bit. A dataset holds 1–40
// curves over a few grids on [0, 1]: a shared uniform grid, two copies
// of it with every interior time moved by up to ±10% of the spacing,
// and prefixes of it five points at a time, as a stream refits them.
// Each curve picks its grid from layout and its values are scaled by
// up to 1e±150. The λ ladder is the default or one of three others:
// one puts λ = 1e300, which flattens a fit to a line, beside two that
// fit; in another λ = MaxFloat64, whose ΦᵀΦ + λR overflows, is the
// only candidate, so no sample fits and each must get the reference's
// error text. Every sample's fit
// through MapFits, for blocks of 1 to 64 parameter rows, one to three
// workers, a cache and none, and either criterion, must equal the
// reference's: every coefficient, the basis size, λ, LOOCV, GCV, DF and
// the score, in Float64bits; a sample the reference cannot fit must get
// the same error text.
func FuzzFitDataset(f *testing.F) {
	f.Add(uint8(7), uint8(24), uint8(0), uint8(0), false, int64(1), []byte{0, 0, 1, 2, 3, 0, 4})
	f.Add(uint8(39), uint8(10), uint8(150), uint8(1), true, int64(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), uint8(3), uint8(255), uint8(2), false, int64(3), []byte{3})
	f.Add(uint8(16), uint8(34), uint8(40), uint8(3), true, int64(4), []byte{0})
	lambdaSets := [][]float64{nil, {0, 1e-4}, {math.MaxFloat64}, {1e300, 1e-6, 0}}
	f.Fuzz(func(t *testing.T, nRaw, mRaw, scaleRaw, lambdaRaw uint8, gcv bool, seed int64, layout []byte) {
		d := fuzzDataset(nRaw, mRaw, scaleRaw, seed, layout)
		base := Options{Lo: 0, Hi: 1, Lambdas: lambdaSets[int(lambdaRaw)%len(lambdaSets)]}
		if gcv {
			base.Criterion = GCV
		}
		want := make([]*Fit, d.Len())
		wantErr := make([]error, d.Len())
		for i, s := range d.Samples {
			ref := base
			ref.NoCache = true
			want[i], wantErr[i] = referenceFitSample(s, ref)
		}
		cache := NewBasisCache()
		for _, width := range []int{1, 2, 3, 7, blockColumns, 64} {
			for workers := 1; workers <= 3; workers++ {
				for _, noCache := range []bool{false, true} {
					opt := base
					opt.Parallel, opt.Cache, opt.NoCache = workers, cache, noCache
					what := fmt.Sprintf("width %d, %d workers, no cache %v", width, workers, noCache)
					gotErr := make([]error, d.Len())
					got, err := mapFits(d, opt, width, func(i int, fit *Fit, err error) (*Fit, error) {
						gotErr[i] = err
						return fit, nil
					})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					for i := range want {
						if diff := diffFits(got[i], gotErr[i], want[i], wantErr[i]); diff != "" {
							t.Fatalf("%s, sample %d of %d (%d points): %s", what, i, d.Len(), d.Samples[i].Len(), diff)
						}
					}
				}
			}
		}
	})
}

// fuzzDataset decodes one FuzzFitDataset input.
func fuzzDataset(nRaw, mRaw, scaleRaw uint8, seed int64, layout []byte) Dataset {
	rng := rand.New(rand.NewSource(seed))
	m := 6 + int(mRaw)%35
	shared := UniformGrid(0, 1, m)
	grids := [][]float64{shared, jitterGrid(shared, rng), jitterGrid(shared, rng)}
	for k := 5; k < m; k += 5 {
		grids = append(grids, shared[:k])
	}
	n := 1 + int(nRaw)%40
	d := Dataset{Samples: make([]Sample, n)}
	for i := range d.Samples {
		ts := grids[0]
		if len(layout) > 0 {
			ts = grids[int(layout[i%len(layout)])%len(grids)]
		}
		// Scales from 1e-150 to 1e150, one per curve, from scaleRaw on.
		scale := math.Pow(10, float64((int(scaleRaw)+37*i)%301-150))
		phase, amp := rng.Float64(), 0.5+rng.Float64()
		vals := make([][]float64, 2)
		for k := range vals {
			vals[k] = make([]float64, len(ts))
			for j, tv := range ts {
				v := amp*math.Sin(2*math.Pi*tv+phase+float64(k)) + 0.05*rng.NormFloat64()
				vals[k][j] = scale * v
			}
		}
		d.Samples[i] = Sample{Times: ts, Values: vals}
	}
	return d
}

// jitterGrid moves every interior time of ts by up to ±10% of its mean
// spacing, keeping the endpoints.
func jitterGrid(ts []float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), ts...)
	h := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	for j := 1; j < len(out)-1; j++ {
		out[j] += (2*rng.Float64() - 1) * 0.1 * h
	}
	return out
}

// diffFits describes the first way got differs from want, bitwise, or
// returns "": both failed with the same text, or every parameter's
// CurveFit is equal in Float64bits.
func diffFits(got *Fit, gotErr error, want *Fit, wantErr error) string {
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, reference error %q", gotErr, wantErr)
		}
		return ""
	case len(got.Params) != len(want.Params):
		return fmt.Sprintf("%d parameters, reference %d", len(got.Params), len(want.Params))
	}
	for k, w := range want.Params {
		if d := diffCurveFit(got.Params[k], w); d != "" {
			return fmt.Sprintf("parameter %d: %s", k, d)
		}
	}
	return ""
}

// TestGroupedFitSkipsNonFiniteSolutions holds the grouped fit to the
// single-column loop on curves scaled toward MaxFloat64, where a λ's
// band solve overflows for some columns of a block and not others, and
// for one λ of a column and not the next: each block's per-λ
// finiteness pass must skip exactly the reference's candidates. The
// test also counts such columns, so the case cannot go unchecked.
func TestGroupedFitSkipsNonFiniteSolutions(t *testing.T) {
	ts := UniformGrid(0, 1, 40)
	rng := rand.New(rand.NewSource(9))
	var d Dataset
	for _, scale := range []float64{1, 1e305, 1e306, 3e306, 1e307, 3e307, 1e308} {
		for range 3 {
			vals := make([][]float64, 2)
			for k := range vals {
				vals[k] = make([]float64, len(ts))
				phase := rng.Float64()
				for j, tv := range ts {
					vals[k][j] = scale * (math.Sin(2*math.Pi*tv+phase) + 0.05*rng.NormFloat64())
				}
			}
			d.Samples = append(d.Samples, Sample{Times: ts, Values: vals})
		}
	}
	opt := Options{Lo: 0, Hi: 1}
	mixed := 0 // columns with a finite and a non-finite solution in one size
	g := newGridSystems(ts, hashFloats(ts), opt, true)
	for _, s := range d.Samples {
		for _, y := range s.Values {
			for _, e := range g.entries {
				if e.err != nil {
					continue
				}
				pt := make([]float64, e.basis.Dim())
				if err := e.phi.AtVecInto([][]float64{y}, pt); err != nil {
					t.Fatal(err)
				}
				var ok, bad bool
				for _, lf := range e.factors {
					if lf.err != nil {
						continue
					}
					x := make([]float64, len(pt))
					if err := lf.solver.SolveInto(pt, x); err != nil {
						t.Fatal(err)
					}
					if finite(x) {
						ok = true
					} else {
						bad = true
					}
				}
				if ok && bad {
					mixed++
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no column had a finite and a non-finite solution within one basis size")
	}
	t.Logf("%d (column, size) pairs mixed finite and non-finite solutions", mixed)
	for _, width := range []int{1, 2, 4, 5, blockColumns} {
		gotErr := make([]error, d.Len())
		got, err := mapFits(d, opt, width, func(i int, fit *Fit, err error) (*Fit, error) {
			gotErr[i] = err
			return fit, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range d.Samples {
			want, wantErr := referenceFitSample(s, opt)
			if diff := diffFits(got[i], gotErr[i], want, wantErr); diff != "" {
				t.Fatalf("blocks of %d columns, sample %d: %s", width, i, diff)
			}
		}
	}
}
