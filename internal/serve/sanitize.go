package serve

import (
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

// ValidationError marks a request rejected by sanitization before any
// numeric work ran; the HTTP layer maps it to 400 Bad Request. It is
// distinct from scoring-time failures (422/500) so clients can tell
// "fix your payload" from "the model could not handle it".
type ValidationError struct {
	// Reason is the operator-facing explanation included in the JSON
	// error body.
	Reason string
	// Err is the underlying cause when one exists (e.g. fda.ErrData for
	// NaN/Inf samples or ragged grids).
	Err error
}

func (e *ValidationError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("invalid request: %s: %v", e.Reason, e.Err)
	}
	return "invalid request: " + e.Reason
}

func (e *ValidationError) Unwrap() error { return e.Err }

// SanitizeDataset is the exported form of sanitizeDataset for the other
// ingress surfaces (the jobs API on serve and gate) — same rules, one
// sanitizer, and a nil error when the curves are safe. maxSamples here
// bounds one *chunk*, not one job: a bulk submission is validated
// per-chunk-sized slice by its caller.
func SanitizeDataset(ds fda.Dataset, maxSamples, maxPoints int) error {
	if verr := sanitizeDataset(ds, maxSamples, maxPoints); verr != nil {
		return verr
	}
	return nil
}

// sanitizeDataset enforces the structural request limits and the fda
// invariants — finite values, finite strictly increasing measurement
// points, value rows matching the grid length, a uniform parameter count
// — before any smoothing or scoring runs. A nil return means the curves
// are safe to hand to the numeric pipeline.
func sanitizeDataset(ds fda.Dataset, maxSamples, maxPoints int) *ValidationError {
	if len(ds.Samples) == 0 {
		return &ValidationError{Reason: "body has no samples"}
	}
	if len(ds.Samples) > maxSamples {
		return &ValidationError{Reason: fmt.Sprintf(
			"%d samples exceed the per-request limit of %d", len(ds.Samples), maxSamples)}
	}
	for i, s := range ds.Samples {
		if len(s.Times) > maxPoints {
			return &ValidationError{Reason: fmt.Sprintf(
				"sample %d has %d measurement points, limit %d", i, len(s.Times), maxPoints)}
		}
	}
	if err := ds.Validate(); err != nil {
		return &ValidationError{Reason: "invalid curves", Err: err}
	}
	return nil
}
