package depth

import "math"

// DirOut is the directional outlyingness method of Dai & Genton (2019),
// the strongest depth baseline in the paper's comparison. At each grid
// point the Stahel–Donoho outlyingness of X_i(t) is given a direction
// (the unit vector from the pointwise robust center to X_i(t)); the
// resulting vector-valued curve O_i(t) is aggregated into
//
//	MO_i = mean_t O_i(t)            (magnitude of average outlyingness)
//	VO_i = mean_t ‖O_i(t) − MO_i‖²  (variation of outlyingness)
//	FO_i = ‖MO_i‖² + VO_i           (total outlyingness — the score)
//
// High ‖MO‖ flags isolated/magnitude outliers, high VO flags persistent
// shape outliers, so FO targets both (Sec. 1.2, issue (3) discussion).
type DirOut struct {
	shape
	dirs [][]float64
	refs []pointwiseReference
}

// FitDirOut builds the pointwise robust references of the training
// samples train (n × p × m, all on one grid).
func FitDirOut(train [][][]float64, opt ProjectionOptions) (*DirOut, error) {
	s, err := trainShape(train, 1, 1)
	if err != nil {
		return nil, err
	}
	dirs := directionSet(s.p, opt)
	return &DirOut{shape: s, dirs: dirs, refs: buildReference(train, s, dirs)}, nil
}

// Components returns the (‖MO‖, VO) decomposition of one sample, the pair
// Dai & Genton plot to classify outlier types.
func (d *DirOut) Components(sample [][]float64) (mo []float64, vo float64, err error) {
	if err = d.check(sample); err != nil {
		return nil, 0, err
	}
	// Directional outlyingness curve O(t) ∈ R^p.
	o := make([][]float64, d.m)
	x := make([]float64, d.p)
	for j := 0; j < d.m; j++ {
		for k := 0; k < d.p; k++ {
			x[k] = sample[k][j]
		}
		sdo := sdoAt(x, d.refs[j], d.dirs)
		// Direction: from the pointwise center to the observation.
		v := make([]float64, d.p)
		var norm float64
		for k := 0; k < d.p; k++ {
			v[k] = x[k] - d.refs[j].center[k]
			norm += v[k] * v[k]
		}
		norm = math.Sqrt(norm)
		oj := make([]float64, d.p)
		if norm > 1e-12 {
			for k := 0; k < d.p; k++ {
				oj[k] = sdo * v[k] / norm
			}
		}
		o[j] = oj
	}
	// MO: mean of O(t) over the grid.
	mo = make([]float64, d.p)
	for _, oj := range o {
		for k, v := range oj {
			mo[k] += v
		}
	}
	for k := range mo {
		mo[k] /= float64(d.m)
	}
	// VO: mean squared deviation of O(t) around MO.
	for _, oj := range o {
		var dev float64
		for k, v := range oj {
			diff := v - mo[k]
			dev += diff * diff
		}
		vo += dev
	}
	vo /= float64(d.m)
	return mo, vo, nil
}

// Score returns FO = ‖MO‖² + VO; higher means more outlying.
func (d *DirOut) Score(sample [][]float64) (float64, error) {
	mo, vo, err := d.Components(sample)
	if err != nil {
		return 0, err
	}
	var mo2 float64
	for _, v := range mo {
		mo2 += v * v
	}
	return mo2 + vo, nil
}

// ScoreBatch scores every sample.
func (d *DirOut) ScoreBatch(samples [][][]float64) ([]float64, error) {
	return scoreBatch(samples, d.Score)
}
