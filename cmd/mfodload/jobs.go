// Bulk-scoring benchmark mode (-jobs): boots the hermetic -self fleet
// with the gate's async jobs API enabled, runs back-to-back bulk jobs
// through internal/client while pacing interactive scoring traffic
// beside them, and scores the run on four axes:
//
//   - bulk throughput (curves scored per second, end to end),
//   - time to first result (submit → first streamed score run — the
//     streaming advantage a batch API cannot have),
//   - interactive p99 while the bulk jobs are in flight (the token
//     budget exists so bulk work cannot starve interactive traffic),
//   - bitwise fidelity: every job's merged scores must equal one
//     synchronous Score over the same curves, bit for bit.
//
// It also reports the live heap once the bulk loop is over (heapEndMB,
// MiB after a full collection), while the gate's job table still holds
// every finished job it retains.
//
// Writes BENCH_jobs.json and exits nonzero when a gate fails; `make
// bench-jobs` and CI run it.
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/fda"
	"repro/internal/jobs"
	"repro/internal/serve"
)

func runJobs(o loadOptions) (*report, error) {
	if o.jobsSamples <= 0 {
		return nil, errors.New("-jobs-samples must be positive")
	}
	fleet, err := bootSelfFleet(o.selfFleet, o.model,
		serve.PoolOptions{QueueCap: 256}, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	// Tile the fitted curves up to the bulk size: per-sample scoring is
	// batch-invariant, so repeats are fine and keep the reference cheap.
	bulk := fda.Dataset{Samples: make([]fda.Sample, o.jobsSamples)}
	for i := range bulk.Samples {
		bulk.Samples[i] = fleet.d.Samples[i%len(fleet.d.Samples)]
	}
	c := client.New(client.Options{BaseURL: fleet.base, Codec: o.codec})
	ctx := context.Background()

	// Synchronous reference scores for the same curves, same codec, same
	// gate — the bitwise yardstick.
	ref, err := c.Score(ctx, o.model, bulk, 0)
	if err != nil {
		return nil, fmt.Errorf("reference score: %w", err)
	}
	bodies, _, err := buildBodies(fleet.d, 1, o.codec)
	if err != nil {
		return nil, err
	}

	// Interactive traffic is paced beside the bulk jobs for their whole
	// life: the pacer stops when the bulk loop ends.
	paceCtx, stopPacing := context.WithCancel(ctx)
	interactive := make(chan scenario, 1)
	httpc := &http.Client{Timeout: 10 * time.Second}
	target := scoreURL(fleet.base, o.model)
	//mfodlint:allow poolmisuse interactive pacer: one goroutine for the bulk loop's life, stopped by cancelling its context and joined by receiving its scenario
	go func() {
		interactive <- pace(paceCtx, "interactive", o.rps, o.concurrency, nil, func(i int) outcome {
			return post(ctx, httpc, target, contentTypeFor(o.codec), bodies[i%len(bodies)])
		})
	}()

	// The measured run: bulk jobs flow back to back for the whole
	// -duration window, so the interactive p99 really is measured under
	// bulk load — one small job would finish before the pacer warms up.
	// TTFR comes from the first job; throughput and retries aggregate
	// over every job in the window; every job is bitwise-checked.
	bulkJobs := &tally{s: scenario{Name: "bulk"}}
	var (
		ttfr                               time.Duration
		jobErr                             error
		chunk, retries, curves, mismatches int
	)
	start := time.Now()
	for n := 0; jobErr == nil && (n == 0 || time.Since(start) < o.duration); n++ {
		t0 := time.Now()
		scores := make([]float64, 0, o.jobsSamples)
		job, err := c.SubmitJob(ctx, o.model, bulk, o.jobsChunk)
		var end *jobs.ResultEnd
		if err == nil {
			chunk = job.Chunk
			end, err = job.Stream(ctx, 0, func(_ int, run []float64) error {
				if ttfr == 0 {
					ttfr = time.Since(t0)
				}
				scores = append(scores, run...)
				return nil
			})
		}
		if err == nil && (end.Error != "" || len(scores) != o.jobsSamples) {
			err = fmt.Errorf("ended %s with %d/%d scores: %s", end.State, len(scores), o.jobsSamples, end.Error)
		}
		if err != nil {
			bulkJobs.add(failed, time.Since(t0))
			jobErr = fmt.Errorf("bulk job %d: %w", n, err)
			continue
		}
		bulkJobs.add(served, time.Since(t0))
		retries += end.Retries
		curves += len(scores)
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(ref.Scores[i]) {
				mismatches++
				fmt.Fprintf(os.Stderr, "mfodload: BITWISE MISMATCH job %d sample %d: job %x sync %x\n",
					n, i, math.Float64bits(scores[i]), math.Float64bits(ref.Scores[i]))
				break
			}
		}
	}
	elapsed := time.Since(start)
	stopPacing()
	inter := <-interactive
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	rep := &report{Mode: "jobs", Target: fleet.base, Fleet: o.selfFleet, Model: o.model, Codec: o.codec,
		Scenarios: []scenario{bulkJobs.done(elapsed), inter}}
	rep.Totals = map[string]any{
		"samples":      o.jobsSamples,
		"chunk":        chunk,
		"curvesPerSec": float64(curves) / elapsed.Seconds(),
		// Time from submitting the first job to its first streamed score run.
		"ttfrMs":       ms(ttfr),
		"chunkRetries": retries,
		"bitwiseMatch": mismatches == 0,
		"heapEndMB":    float64(mem.HeapAlloc) / (1 << 20),
	}
	rep.failIf(jobErr != nil, "%v", jobErr)
	rep.failIf(mismatches > 0, "%d jobs' scores are not bitwise identical to synchronous scoring", mismatches)
	rep.failIf(o.jobsMaxTTFR > 0 && ttfr > o.jobsMaxTTFR, "time to first result %v > allowed %v", ttfr, o.jobsMaxTTFR)
	rep.failIf(o.jobsMaxP99 > 0 && inter.LatencyMs.P99 > ms(o.jobsMaxP99),
		"interactive p99 %.1fms under bulk load > allowed %v", inter.LatencyMs.P99, o.jobsMaxP99)
	rep.failIf(inter.Requests == 0, "no interactive requests completed during the bulk jobs — the starvation measurement proves nothing")
	return rep, nil
}
