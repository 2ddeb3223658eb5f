package fda

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/bspline"
	"repro/internal/linalg"
)

// FuzzSpanFit holds FitSample, which runs every design product over
// span-compact rows, to denseFit, the same fit on a dense design: the
// oracle for "skipping each row's zeros changes no bit". denseFit takes
// each hat diagonal with refHatDiag, the plain form of the hat kernel's
// recursion, from its own factor. Inputs:
//
//   - grids with points on the knots of the first candidate basis and
//     one ulp to either side of them, including just outside [0, 1];
//   - orders 1–8 and two explicit basis sizes up to order+12;
//   - values with ±0, subnormals and magnitudes up to 1e300;
//   - custom λ sets, from 0 and subnormal up to the largest float64,
//     whose ΦᵀΦ + λR overflows and yields non-finite coefficients;
//   - a Fourier Options.Basis half the time, and either criterion.
//
// Every CurveFit field must be equal in Float64bits, or both sides must
// fail; FitSample runs through a cold cache, a warm one and none.
func FuzzSpanFit(f *testing.F) {
	f.Add(uint8(3), uint8(4), false, []byte{}, []byte{0, 4, 8, 12, 16, 20, 24, 28}, []byte{})
	// Every point on a knot or one ulp beside it: rows whose window
	// holds exact zeros.
	f.Add(uint8(3), uint8(10), false, []byte{0, 5}, []byte{1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 17, 18, 21, 22, 25}, []byte{})
	// Piecewise constants and linears: one or two values per row.
	f.Add(uint8(0), uint8(7), false, []byte{3}, []byte{0, 3, 7, 11, 15, 19, 23, 27, 31}, []byte{1, 2, 3})
	f.Add(uint8(1), uint8(12), true, []byte{}, []byte{0, 4, 7, 9, 14, 18, 22, 26, 30, 34}, []byte{})
	// Order 8 with more functions than points: the ridge retry.
	f.Add(uint8(7), uint8(12+13*3), false, []byte{0, 1, 2}, []byte{3, 7, 11, 40, 41, 42}, []byte{})
	// ±0, subnormal and 1e300 values; the first λ overflows the system,
	// so its non-finite coefficients must be skipped, not selected.
	f.Add(uint8(0x83), uint8(5), false, []byte{12, 0, 11, 10},
		[]byte{0, 2, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41},
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)), math.Float64bits(-5e-324)))
	// A finite factor whose inverse overflows: λ = 5e-324 leaves the
	// middle basis function, which no point reaches, a pivot near
	// 1e-161, so S₁₁ is +Inf and 0·Inf makes the hat diagonal NaN. That
	// λ must be skipped, not selected; 1e-4 fits.
	f.Add(uint8(2), uint8(0), false, []byte{1, 6}, []byte{}, []byte{})
	// Fourier: odd and even sizes, the latter failing to build.
	f.Add(uint8(2), uint8(3+13*4), true, []byte{4, 6}, []byte{0, 6, 10, 16, 20, 26, 30, 36, 40, 46}, []byte{})
	f.Add(uint8(4), uint8(6), true, []byte{12, 5}, []byte{1, 5, 9, 13, 17, 21, 25, 29}, []byte{})
	f.Fuzz(func(t *testing.T, orderRaw, dimRaw uint8, fourier bool, lambdaRaw, gridRaw, yRaw []byte) {
		s, opt := spanFitInput(orderRaw, dimRaw, fourier, lambdaRaw, gridRaw, yRaw)
		want, wantErr := denseFit(s, opt)
		cache := NewBasisCache()
		for _, c := range []struct {
			name string
			opt  Options
		}{
			{"cold cache", Options{Cache: cache}},
			{"warm cache", Options{Cache: cache}},
			{"no cache", Options{NoCache: true}},
		} {
			o := opt
			o.Cache, o.NoCache = c.opt.Cache, c.opt.NoCache
			got, err := FitSample(s, o)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: FitSample error %v, dense fit error %v", c.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			for k := range want.Params {
				if d := diffCurveFit(got.Params[k], want.Params[k]); d != "" {
					t.Fatalf("%s: parameter %d: %s", c.name, k, d)
				}
			}
		}
	})
}

// spanFitInput decodes one fuzz input into a two-parameter sample and
// options with a fixed [0, 1] domain.
func spanFitInput(orderRaw, dimRaw uint8, fourier bool, lambdaRaw, gridRaw, yRaw []byte) (Sample, Options) {
	order := 1 + int(orderRaw)%8
	opt := Options{
		Order: order,
		Dims:  []int{order + int(dimRaw)%13, order + int(dimRaw)/13%13},
		Lo:    0,
		Hi:    1,
	}
	if orderRaw&0x80 != 0 {
		opt.Criterion = GCV
	}
	if fourier {
		opt.Basis = func(dim int, lo, hi float64) (bspline.Basis, error) {
			return bspline.NewFourier(dim, lo, hi)
		}
	}
	lambdaTable := []float64{0, 5e-324, 1e-300, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 1, 1e4, 1e100, 1e300, math.MaxFloat64}
	for i, b := range lambdaRaw {
		if i == 6 {
			break
		}
		opt.Lambdas = append(opt.Lambdas, lambdaTable[int(b)%len(lambdaTable)])
	}

	// Grid: each byte picks a knot of the first B-spline size (byte/4)
	// and puts the point on it, one ulp below or above it, or halfway
	// to the next knot (byte%4).
	b, err := bspline.New(opt.Dims[0], order, 0, 1)
	if err != nil {
		panic(err) // dims are >= order and the domain is valid
	}
	knots := b.Breakpoints()
	var ts []float64
	for _, g := range gridRaw {
		i := int(g/4) % len(knots)
		k := knots[i]
		switch g % 4 {
		case 1:
			k = math.Nextafter(k, math.Inf(-1))
		case 2:
			k = math.Nextafter(k, math.Inf(1))
		case 3:
			if i+1 < len(knots) {
				k = (k + knots[i+1]) / 2
			}
		}
		ts = append(ts, k)
	}
	ts = append(ts, 0, 1)
	sort.Float64s(ts)
	uniq := ts[:1]
	for _, v := range ts[1:] {
		if v > uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	ts = uniq

	// Values: one float64 per 8 bytes of yRaw, NaN and ±Inf replaced
	// and magnitudes folded to at most 1e300; past the bytes, a smooth
	// curve with signed zeros and subnormals mixed in.
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308}
	ys := make([][]float64, 2)
	for k := range ys {
		ys[k] = make([]float64, len(ts))
		for j, tv := range ts {
			n := (k*len(ts) + j) * 8
			var v float64
			switch {
			case n+8 <= len(yRaw):
				v = math.Float64frombits(binary.LittleEndian.Uint64(yRaw[n:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = math.Copysign(1e300, v)
				}
				if math.Abs(v) > 1e300 {
					v = math.Mod(v, 1e300)
				}
			case (j+k)%5 == 4:
				v = special[(j+k)%len(special)]
			default:
				v = math.Sin(7*tv+float64(k)) + 0.1*tv
			}
			ys[k][j] = v
		}
	}
	return Sample{Times: ts, Values: ys}, opt
}

// diffCurveFit describes the first field in which got and want differ
// bitwise, or returns "".
func diffCurveFit(got, want *CurveFit) string {
	if got.Basis.Dim() != want.Basis.Dim() || fmt.Sprintf("%T", got.Basis) != fmt.Sprintf("%T", want.Basis) {
		return fmt.Sprintf("basis %T dim %d, want %T dim %d", got.Basis, got.Basis.Dim(), want.Basis, want.Basis.Dim())
	}
	if len(got.Coef) != len(want.Coef) {
		return fmt.Sprintf("%d coefficients, want %d", len(got.Coef), len(want.Coef))
	}
	for i := range want.Coef {
		if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
			return fmt.Sprintf("coef %d = %v, want %v", i, got.Coef[i], want.Coef[i])
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"lambda", got.Lambda, want.Lambda},
		{"LOOCV", got.LOOCV, want.LOOCV},
		{"GCV", got.GCV, want.GCV},
		{"DF", got.DF, want.DF},
		{"score", got.Score, want.Score},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// denseFit is FitSample on a dense design, the arithmetic of the
// smoother before designs were span-compact: the design holds every
// row in full, Φᵀy and ΦᵀΦ are the dense products, the ridge ε reads
// the whole matrix, the residual scan dots full rows, and the hat
// diagonal is refHatDiag over full rows. Basis sizes, penalties, the
// factorization, the skip of a λ with a non-finite hat diagonal or
// coefficient and the selection are the smoother's own.
func denseFit(s Sample, opt Options) (*Fit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	type denseSystem struct {
		basis bspline.Basis
		phi   *linalg.Dense
		lf    []*lambdaFactor
		err   error
	}
	lambdas := opt.lambdas()
	var systems []denseSystem
	for _, dim := range opt.dims(len(s.Times)) {
		basis, err := opt.factory()(dim, opt.Lo, opt.Hi)
		if err != nil {
			systems = append(systems, denseSystem{err: err})
			continue
		}
		phi := linalg.NewDense(len(s.Times), dim)
		for j, tv := range s.Times {
			basis.Eval(tv, 0, phi.Row(j))
		}
		sys := denseSystem{basis: basis, phi: phi}
		for _, lambda := range lambdas {
			lf, err := denseLambdaFactor(basis, phi, lambda, opt.penaltyDeriv())
			if err != nil && lambda > 0 {
				sys.err = err // the penalty failed: the whole size fails
				break
			}
			sys.lf = append(sys.lf, lf)
		}
		systems = append(systems, sys)
	}
	fit := &Fit{Params: make([]*CurveFit, len(s.Values))}
	for k, y := range s.Values {
		var best *CurveFit
		var firstErr error
		for _, sys := range systems {
			if sys.err != nil {
				if firstErr == nil {
					firstErr = sys.err
				}
				continue
			}
			cf := denseSelectLambda(sys.basis, sys.phi, sys.lf, y, lambdas, opt.Criterion)
			if cf == nil {
				if firstErr == nil {
					firstErr = ErrFit
				}
				continue
			}
			if best == nil || cf.Score < best.Score {
				best = cf
			}
		}
		if best == nil {
			return nil, fmt.Errorf("dense fit: parameter %d: %w", k, firstErr)
		}
		fit.Params[k] = best
	}
	return fit, nil
}

// denseLambdaFactor factors ΦᵀΦ + λR, taken from the dense design,
// with the smoother's ridge retry, and takes the hat diagonal with
// refHatDiag from its own factor's storage. A failed factorization or
// a non-finite hat diagonal is a lambdaFactor with err set; a failed
// penalty is returned as the error.
func denseLambdaFactor(basis bspline.Basis, phi *linalg.Dense, lambda float64, q int) (*lambdaFactor, error) {
	_, L := phi.Dims()
	a := denseAtA(phi)
	if lambda > 0 {
		r, err := bspline.PenaltyMatrix(basis, q, penaltyNodes(basis, q))
		if err != nil {
			return nil, err
		}
		for i := 0; i < L; i++ {
			for j := 0; j < L; j++ {
				a.Set(i, j, a.At(i, j)+lambda*r.At(i, j))
			}
		}
	}
	k := L - 1
	if bs, ok := basis.(*bspline.BSpline); ok {
		k = bs.Order() - 1
	}
	factor := func(a *linalg.Dense) (*linalg.BandCholesky, []float64, error) {
		band := make([]float64, L*(k+1))
		for i := 0; i < L; i++ {
			for j := max(0, i-k); j <= i; j++ {
				band[i*(k+1)+j-i+k] = a.At(i, j)
			}
		}
		ch, err := linalg.NewBandCholesky(L, k, band)
		return ch, band, err
	}
	ch, l, err := factor(a)
	if err != nil {
		ridged := a.Clone()
		eps := 1e-9 * (1 + a.MaxAbs())
		for i := 0; i < L; i++ {
			ridged.Set(i, i, ridged.At(i, i)+eps)
		}
		if ch, l, err = factor(ridged); err != nil {
			return &lambdaFactor{err: err}, nil
		}
	}
	lf := &lambdaFactor{solver: ch, hat: refHatDiag(L, k, l, phi)}
	if !finite(lf.hat) {
		return &lambdaFactor{err: ErrFit}, nil
	}
	for _, h := range lf.hat {
		lf.trH += h
	}
	return lf, nil
}

// refHatDiag is linalg's RefHatDiag, the plain reference of the hat
// kernel's recursion: the band of S = A⁻¹ from the factor L stored as
// NewBandCholesky leaves it (n rows of k+1), then φᵀSφ over every
// in-band pair of each full row of phi, in column order.
func refHatDiag(n, k int, l []float64, phi *linalg.Dense) []float64 {
	L := func(i, j int) float64 { return l[i*(k+1)+j-i+k] } // j in [i−k, i]
	S := make(map[[2]int]float64)
	at := func(i, j int) float64 { return S[[2]int{min(i, j), max(i, j)}] }
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j <= min(i+k, n-1); j++ {
			var v float64
			for m := i + 1; m <= min(i+k, n-1); m++ {
				v -= L(m, i) * at(m, j)
			}
			S[[2]int{i, j}] = v / L(i, i)
		}
		v := 1 / L(i, i)
		for m := i + 1; m <= min(i+k, n-1); m++ {
			v -= L(m, i) * at(m, i)
		}
		S[[2]int{i, i}] = v / L(i, i)
	}
	m, _ := phi.Dims()
	h := make([]float64, m)
	for j := range h {
		row := phi.Row(j)
		for a := range row {
			var t float64
			for b := max(0, a-k); b <= min(n-1, a+k); b++ {
				t += at(a, b) * row[b]
			}
			h[j] += row[a] * t
		}
	}
	return h
}

// denseSelectLambda is fitWithEntry on the dense design: nil when every
// λ fails.
func denseSelectLambda(basis bspline.Basis, phi *linalg.Dense, lfs []*lambdaFactor, y, lambdas []float64, crit Criterion) *CurveFit {
	m, L := phi.Dims()
	phiTy := denseAtVec(phi, y)
	coef := make([]float64, L)
	var best *CurveFit
	for i, lambda := range lambdas {
		lf := lfs[i]
		if lf.err != nil {
			continue
		}
		if err := lf.solver.SolveInto(phiTy, coef); err != nil || !finite(coef) {
			continue
		}
		var loocv, rss float64
		for j := 0; j < m; j++ {
			res := y[j] - linalg.Dot(phi.Row(j), coef)
			rss += res * res
			den := 1 - lf.hat[j]
			if den < 1e-10 {
				den = 1e-10
			}
			r := res / den
			loocv += r * r
		}
		loocv /= float64(m)
		gcv := math.Inf(1)
		if den := float64(m) - lf.trH; den > 1e-10 {
			gcv = float64(m) * rss / (den * den)
		}
		score := loocv
		if crit == GCV {
			score = gcv
		}
		if best == nil || score < best.Score {
			best = &CurveFit{Basis: basis, Coef: append([]float64(nil), coef...), Lambda: lambda,
				LOOCV: loocv, GCV: gcv, DF: lf.trH, Score: score}
		}
	}
	return best
}

// denseAtA is the dense Gram ΦᵀΦ: the upper triangle accumulated row by
// row, skipping zero entries of the left factor, then mirrored.
func denseAtA(phi *linalg.Dense) *linalg.Dense {
	m, n := phi.Dims()
	out := linalg.NewDense(n, n)
	for k := 0; k < m; k++ {
		rk := phi.Row(k)
		for i, rki := range rk {
			if rki == 0 {
				continue
			}
			oi := out.Row(i)
			for j := i; j < n; j++ {
				oi[j] += rki * rk[j]
			}
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Set(i, j, out.At(j, i))
		}
	}
	return out
}

// denseAtVec is the dense product Φᵀy, skipping zero entries of y.
func denseAtVec(phi *linalg.Dense, y []float64) []float64 {
	_, n := phi.Dims()
	out := make([]float64, n)
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for j, v := range phi.Row(i) {
			out[j] += v * yi
		}
	}
	return out
}
