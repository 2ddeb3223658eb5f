package serve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/jobs"
)

// JobRunner adapts the serving pool to the jobs.Runner interface: each
// bulk-job chunk becomes one ordinary pool job, so chunks ride the same
// queue, deadline eviction and panic isolation as interactive requests
// — and inherit the pipeline's batch-invariance guarantee, which is what
// makes the merged job bitwise-identical to one synchronous Score over
// the full dataset.
type JobRunner struct {
	Registry *Registry
	Pool     *Pool
}

// ScoreChunk scores one chunk through the pool. Backpressure
// (ErrQueueFull) and timeouts are transient — the manager retries with
// backoff, which is exactly how a bulk job yields to interactive
// traffic under load. Model and data failures are fatal: retrying an
// unknown model or curves the pipeline rejects cannot succeed.
func (jr *JobRunner) ScoreChunk(ctx context.Context, model string, c jobs.Chunk) ([]float64, error) {
	m, ok := jr.Registry.Get(model)
	if !ok {
		return nil, jobs.Fatal(fmt.Errorf("unknown model %q", model))
	}
	job, err := jr.Pool.Enqueue(ctx, m, c.Dataset, 0)
	switch {
	case errors.Is(err, ErrPoolClosed):
		return nil, jobs.Fatal(err)
	case err != nil:
		// ErrQueueFull and context errors: transient backpressure.
		return nil, err
	}
	res, done := job.Wait(ctx)
	if !done {
		return nil, ctx.Err()
	}
	if res.Err != nil {
		if unscorable(res.Err) {
			return nil, jobs.Fatal(res.Err)
		}
		return nil, res.Err
	}
	return res.Scores, nil
}
