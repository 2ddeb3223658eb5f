package serve

import (
	"errors"
	"fmt"

	"repro/internal/fda"
	"repro/internal/stream"
)

// Default request limits applied when Config leaves them zero. They are
// generous for legitimate traffic but stop a single request from
// smoothing an unbounded number of curves or points.
const (
	// DefaultMaxSamples caps curves per /v1/score request.
	DefaultMaxSamples = 1024
	// DefaultMaxPoints caps measurement points per curve, at the bound
	// a stream's held points share: a fit's cost grows with the square
	// of its points (see stream.MaxPoints).
	DefaultMaxPoints = stream.MaxPoints
	// jobsMaxSamples caps samples per bulk submission. The interactive
	// MaxSamples cap does not apply to jobs — bulk is the point — but
	// curves are still sanitized per submission.
	jobsMaxSamples = 1 << 20
)

// sanitizeDataset enforces the structural request limits and the fda
// invariants — finite values, finite strictly increasing measurement
// points, value rows matching the grid length, a uniform parameter count
// — before any smoothing or scoring runs. A nil return means the curves
// are safe to hand to the numeric pipeline. An error is the request's
// fault, answered 400 before any numeric work, unlike a scoring-time
// failure (422/500); it wraps fda.ErrData when the curves break an fda
// invariant.
func sanitizeDataset(ds fda.Dataset, maxSamples, maxPoints int) error {
	if len(ds.Samples) == 0 {
		return errors.New("invalid request: body has no samples")
	}
	if len(ds.Samples) > maxSamples {
		return fmt.Errorf("invalid request: %d samples exceed the per-request limit of %d", len(ds.Samples), maxSamples)
	}
	for i, s := range ds.Samples {
		if len(s.Times) > maxPoints {
			return fmt.Errorf("invalid request: sample %d has %d measurement points, limit %d", i, len(s.Times), maxPoints)
		}
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("invalid request: invalid curves: %w", err)
	}
	return nil
}
