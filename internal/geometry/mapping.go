// Package geometry implements the paper's mapping functions (Sec. 3):
// geometric aggregations that turn a fitted p-dimensional functional datum
// X̃ — viewed as a path in R^p — into a univariate functional datum
// evaluated on a grid. The flagship mapping is the curvature κ of Eq. 5;
// the package also provides speed, log-curvature, radius of curvature,
// signed curvature and turning angle (p = 2), torsion (p = 3), arc length,
// and a raw-concatenation mapping used as an ablation control.
package geometry

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fda"
	"repro/internal/linalg"
)

// ErrMapping reports a mapping that cannot be applied to the given fit
// (wrong dimension, degenerate path).
var ErrMapping = errors.New("geometry: mapping not applicable")

// Eps guards divisions by near-zero speeds: points where ‖D¹X‖ < Eps are
// treated as stationary and their curvature contribution is damped rather
// than exploding.
const Eps = 1e-12

// Mapping is a geometric aggregation of the p parameters of a fitted MFD
// sample into one feature vector. For functional mappings the vector is the
// mapped curve evaluated at the grid points; mappings may also emit other
// fixed-length feature vectors (the detector layer only requires a
// consistent length across samples).
type Mapping interface {
	// Name identifies the mapping in reports and the registry.
	Name() string
	// MinDim returns the smallest parameter count p the mapping supports.
	MinDim() int
	// Map evaluates the mapping of fit on the grid ts.
	Map(fit *fda.Fit, ts []float64) ([]float64, error)
}

// velocityAcceleration evaluates D¹X̃ and D²X̃ at t.
func velocityAcceleration(fit *fda.Fit, t float64) (v, a []float64) {
	return fit.Eval(t, 1), fit.Eval(t, 2)
}

// curvatureAt computes Eq. 5 at one point from the velocity and
// acceleration vectors using the dimension-free identity
// κ = √(‖v‖²‖a‖² − (v·a)²) / ‖v‖³, which equals ‖D¹(v/‖v‖)‖ / ‖v‖.
func curvatureAt(v, a []float64) float64 {
	var vv, aa, va float64
	for i, vi := range v {
		vv += vi * vi
		aa += a[i] * a[i]
		va += vi * a[i]
	}
	if vv < Eps {
		return 0
	}
	num := vv*aa - va*va
	if num < 0 {
		num = 0 // clamp the Cauchy–Schwarz residual against round-off
	}
	return math.Sqrt(num) / (vv * math.Sqrt(vv))
}

// Curvature is the paper's mapping function κ (Eq. 5): how quickly the unit
// tangent of the path X̃ ⊂ R^p turns, relative to the speed. Straight-line
// (linearly correlated) stretches map to 0; abnormal changes in the
// relationship between parameters bend the path and raise κ.
type Curvature struct {
	// Max caps κ near stationary points of the path, where ‖D¹X̃‖ → 0 and
	// Eq. 5 diverges; the spike's presence and location stay informative
	// while its magnitude remains finite. 0 means 1e3.
	Max float64
}

// Name implements Mapping.
func (Curvature) Name() string { return "curvature" }

// MinDim implements Mapping; curvature needs a path in at least R².
func (Curvature) MinDim() int { return 2 }

// Map implements Mapping. The derivative evaluation is batched per
// parameter through Fit.EvalGrid, so the span-compact designs (and,
// under a fitted Pipeline, the shared basis cache) are hit once per
// parameter instead of re-evaluating basis functions at every grid
// point; the per-point κ arithmetic is unchanged.
func (c Curvature) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if fit.Dim() < 2 {
		return nil, fmt.Errorf("geometry: curvature needs p >= 2, got %d: %w", fit.Dim(), ErrMapping)
	}
	max := c.Max
	if max == 0 {
		max = 1e3
	}
	d1 := fit.EvalGrid(ts, 1)
	d2 := fit.EvalGrid(ts, 2)
	p := fit.Dim()
	v := make([]float64, p)
	a := make([]float64, p)
	out := make([]float64, len(ts))
	for i := range ts {
		for k := 0; k < p; k++ {
			v[k] = d1[k][i]
			a[k] = d2[k][i]
		}
		k := curvatureAt(v, a)
		if k > max {
			k = max
		}
		out[i] = k
	}
	return out, nil
}

// LogCurvature maps to log(κ + shift), compressing the heavy right tail of
// curvature distributions so detectors see a better-conditioned feature.
type LogCurvature struct {
	// Shift regularises log near κ = 0; 0 means 1e-6.
	Shift float64
}

// Name implements Mapping.
func (m LogCurvature) Name() string { return "log-curvature" }

// MinDim implements Mapping.
func (LogCurvature) MinDim() int { return 2 }

// Map implements Mapping.
func (m LogCurvature) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	shift := m.Shift
	if shift == 0 {
		shift = 1e-6
	}
	raw, err := Curvature{}.Map(fit, ts)
	if err != nil {
		return nil, err
	}
	for i, k := range raw {
		raw[i] = math.Log(k + shift)
	}
	return raw, nil
}

// Speed maps to ‖D¹X̃(t)‖: the Euclidean velocity of the path, sensitive to
// isolated magnitude outliers but blind to direction changes.
type Speed struct{}

// Name implements Mapping.
func (Speed) Name() string { return "speed" }

// MinDim implements Mapping.
func (Speed) MinDim() int { return 1 }

// Map implements Mapping.
func (Speed) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = linalg.Norm2(fit.Eval(t, 1))
	}
	return out, nil
}

// RadiusOfCurvature maps to r(t) = 1/κ(t), the tangent-circle radius of
// Fig. 2, clipped at a large ceiling where the path is straight.
type RadiusOfCurvature struct {
	// MaxRadius caps r where κ → 0; 0 means 1e6.
	MaxRadius float64
}

// Name implements Mapping.
func (RadiusOfCurvature) Name() string { return "radius" }

// MinDim implements Mapping.
func (RadiusOfCurvature) MinDim() int { return 2 }

// Map implements Mapping.
func (m RadiusOfCurvature) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	maxR := m.MaxRadius
	if maxR == 0 {
		maxR = 1e6
	}
	raw, err := Curvature{}.Map(fit, ts)
	if err != nil {
		return nil, err
	}
	for i, k := range raw {
		if k < 1/maxR {
			raw[i] = maxR
		} else {
			raw[i] = 1 / k
		}
	}
	return raw, nil
}

// SignedCurvature is the planar (p = 2) curvature with orientation:
// (x′y″ − y′x″)/‖v‖³. Sign flips distinguish left from right turns, which
// the unsigned κ conflates.
type SignedCurvature struct{}

// Name implements Mapping.
func (SignedCurvature) Name() string { return "signed-curvature" }

// MinDim implements Mapping.
func (SignedCurvature) MinDim() int { return 2 }

// Map implements Mapping.
func (SignedCurvature) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if fit.Dim() != 2 {
		return nil, fmt.Errorf("geometry: signed curvature needs p == 2, got %d: %w", fit.Dim(), ErrMapping)
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		v, a := velocityAcceleration(fit, t)
		speed2 := v[0]*v[0] + v[1]*v[1]
		if speed2 < Eps {
			out[i] = 0
			continue
		}
		out[i] = (v[0]*a[1] - v[1]*a[0]) / (speed2 * math.Sqrt(speed2))
	}
	return out, nil
}

// TurningAngle maps a planar path to the unwrapped tangent direction
// θ(t) = atan2(y′, x′): the integral of signed curvature with respect to
// arc length, a persistent-shape feature.
type TurningAngle struct{}

// Name implements Mapping.
func (TurningAngle) Name() string { return "turning-angle" }

// MinDim implements Mapping.
func (TurningAngle) MinDim() int { return 2 }

// Map implements Mapping.
func (TurningAngle) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if fit.Dim() != 2 {
		return nil, fmt.Errorf("geometry: turning angle needs p == 2, got %d: %w", fit.Dim(), ErrMapping)
	}
	out := make([]float64, len(ts))
	var offset float64
	var prev float64
	for i, t := range ts {
		v := fit.Eval(t, 1)
		theta := math.Atan2(v[1], v[0])
		if i > 0 {
			// Unwrap: keep consecutive angles within π of each other.
			for theta+offset-prev > math.Pi {
				offset -= 2 * math.Pi
			}
			for theta+offset-prev < -math.Pi {
				offset += 2 * math.Pi
			}
		}
		out[i] = theta + offset
		prev = out[i]
	}
	return out, nil
}

// Torsion is the p = 3 second-order geometric invariant
// τ = det(v, a, j)/‖v × a‖² measuring how fast the path leaves its
// osculating plane.
type Torsion struct{}

// Name implements Mapping.
func (Torsion) Name() string { return "torsion" }

// MinDim implements Mapping.
func (Torsion) MinDim() int { return 3 }

// Map implements Mapping.
func (Torsion) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if fit.Dim() != 3 {
		return nil, fmt.Errorf("geometry: torsion needs p == 3, got %d: %w", fit.Dim(), ErrMapping)
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		v := fit.Eval(t, 1)
		a := fit.Eval(t, 2)
		j := fit.Eval(t, 3)
		cx := v[1]*a[2] - v[2]*a[1]
		cy := v[2]*a[0] - v[0]*a[2]
		cz := v[0]*a[1] - v[1]*a[0]
		den := cx*cx + cy*cy + cz*cz
		if den < Eps {
			out[i] = 0
			continue
		}
		out[i] = (cx*j[0] + cy*j[1] + cz*j[2]) / den
	}
	return out, nil
}

// ArcLength maps to the cumulative arc length s(t) = ∫ₗₒᵗ ‖D¹X̃‖, computed
// with the trapezoid rule on the evaluation grid.
type ArcLength struct{}

// Name implements Mapping.
func (ArcLength) Name() string { return "arc-length" }

// MinDim implements Mapping.
func (ArcLength) MinDim() int { return 1 }

// Map implements Mapping.
func (ArcLength) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	speeds, err := Speed{}.Map(fit, ts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ts))
	for i := 1; i < len(ts); i++ {
		out[i] = out[i-1] + 0.5*(speeds[i]+speeds[i-1])*(ts[i]-ts[i-1])
	}
	return out, nil
}

// Raw is the no-geometry control used in ablations: it concatenates the
// fitted parameter values on the grid, so detectors see the smoothed
// curves without any aggregation.
type Raw struct{}

// Name implements Mapping.
func (Raw) Name() string { return "raw" }

// MinDim implements Mapping.
func (Raw) MinDim() int { return 1 }

// Map implements Mapping.
func (Raw) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	out := make([]float64, 0, fit.Dim()*len(ts))
	for _, grid := range fit.EvalGrid(ts, 0) {
		out = append(out, grid...)
	}
	return out, nil
}

// Stack applies several mappings and concatenates their outputs, letting a
// detector combine e.g. curvature with speed.
type Stack []Mapping

// Name implements Mapping.
func (s Stack) Name() string {
	name := "stack("
	for i, m := range s {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name + ")"
}

// MinDim implements Mapping: the stack needs the most demanding member.
func (s Stack) MinDim() int {
	min := 1
	for _, m := range s {
		if d := m.MinDim(); d > min {
			min = d
		}
	}
	return min
}

// Map implements Mapping.
func (s Stack) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("geometry: empty mapping stack: %w", ErrMapping)
	}
	var out []float64
	for _, m := range s {
		part, err := m.Map(fit, ts)
		if err != nil {
			return nil, fmt.Errorf("geometry: stack member %s: %w", m.Name(), err)
		}
		out = append(out, part...)
	}
	return out, nil
}

// Registry lists the built-in mappings by name for CLI lookup.
func Registry() map[string]Mapping {
	ms := []Mapping{
		Curvature{}, LogCurvature{}, NormalizedCurvature{}, Speed{},
		RadiusOfCurvature{}, SignedCurvature{}, TurningAngle{}, Torsion{},
		ArcLength{}, Raw{},
	}
	out := make(map[string]Mapping, len(ms))
	for _, m := range ms {
		out[m.Name()] = m
	}
	return out
}

// MapDataset applies the mapping to every fitted sample on a shared grid,
// returning the n feature vectors the detector layer consumes.
func MapDataset(fits []*fda.Fit, m Mapping, ts []float64) ([][]float64, error) {
	if len(fits) == 0 {
		return nil, fmt.Errorf("geometry: no fits to map: %w", ErrMapping)
	}
	out := make([][]float64, len(fits))
	for i, fit := range fits {
		v, err := m.Map(fit, ts)
		if err != nil {
			return nil, fmt.Errorf("geometry: sample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
