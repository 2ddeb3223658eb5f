// Streaming-ingestion benchmark (-streams): paces N live streams through
// the hermetic -self fleet at -rps streams per second, each one curve
// appended chunk by chunk with a piggybacked early-warning score on
// every append. Reports completed streams/sec (and per core), append
// latency and score staleness to BENCH_streaming.json; fails below
// -streams-min-rate or on any failed stream or final-score mismatch, so
// CI can gate streaming like it gates serving latency.
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fda"
	"repro/internal/serve"
	"repro/internal/stream"
)

// streamPoints converts one fitted sample into append points.
func streamPoints(s fda.Sample) []stream.Point {
	pts := make([]stream.Point, len(s.Times))
	for j := range s.Times {
		v := make([]float64, len(s.Values))
		for k := range s.Values {
			v[k] = s.Values[k][j]
		}
		pts[j] = stream.Point{T: s.Times[j], V: v}
	}
	return pts
}

func runStreams(o loadOptions) (*report, error) {
	if o.streamChunk <= 0 {
		return nil, errors.New("-stream-chunk must be positive")
	}
	fleet, err := bootSelfFleet(o.selfFleet, o.model,
		serve.PoolOptions{QueueCap: 256}, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	c := client.New(client.Options{BaseURL: fleet.base})
	ctx := context.Background()

	// Batch reference scores, one per distinct curve.
	ref := make([]float64, len(fleet.d.Samples))
	for i, s := range fleet.d.Samples {
		res, err := c.Score(ctx, o.model, fda.Dataset{Samples: []fda.Sample{s}}, 0)
		if err != nil {
			return nil, fmt.Errorf("reference score: %w", err)
		}
		ref[i] = res.Scores[0]
	}

	var (
		mu          sync.Mutex
		appendMs    []float64
		stalenessMs []float64 // age of the fit behind each piggybacked score
		mismatches  int
	)
	// One stream from first append to delete; the final score, at full
	// coverage, must equal the batch score of the same curve bitwise.
	completeStream := func(i int) outcome {
		curve := i % len(fleet.d.Samples)
		pts := streamPoints(fleet.d.Samples[curve])
		id := fmt.Sprintf("bench-%d", i)
		defer c.StreamDelete(ctx, id)
		var lats, stals []float64
		var last *stream.AppendResult
		for at := 0; at < len(pts); at += o.streamChunk {
			t0 := time.Now()
			res, err := c.StreamAppend(ctx, id, o.model, pts[at:min(at+o.streamChunk, len(pts))], true)
			if err != nil {
				return failed
			}
			lats = append(lats, ms(time.Since(t0)))
			if res.Score != nil {
				stals = append(stals, float64(res.Score.StalenessMs))
			}
			last = res
		}
		mu.Lock()
		defer mu.Unlock()
		appendMs = append(appendMs, lats...)
		stalenessMs = append(stalenessMs, stals...)
		if last == nil || last.Score == nil ||
			last.Score.Coverage != 1 { //mfodlint:allow floateq coverage is the grid-count ratio (covered/total), exactly 1.0 when the whole domain is observed; the gate demands full coverage, not near-full
			return failed
		}
		if math.Float64bits(last.Score.Score) != math.Float64bits(ref[curve]) {
			mismatches++
		}
		return served
	}

	paceCtx, stop := context.WithCancel(ctx)
	defer stop()
	s := pace(paceCtx, "streams", o.rps, o.concurrency, func(i int) {
		if i == o.streams-1 {
			stop() // the last stream: pace sends it, then ends
		}
	}, completeStream)

	streamsPerSec := float64(s.OK) / s.ElapsedS
	rep := &report{Mode: "streaming", Target: fleet.base, Fleet: o.selfFleet, Model: o.model,
		Codec:     "json", // appends have no wire encoding
		Scenarios: []scenario{s},
		Totals: map[string]any{
			"streams":         o.streams,
			"pointsPerStream": len(fleet.d.Samples[0].Times),
			"chunk":           o.streamChunk,
			"appends":         len(appendMs),
			// Completed streams (full curve appended and scored at
			// coverage 1) per second; per core divides by GOMAXPROCS so
			// the floor survives machine changes.
			"streamsPerSec":        streamsPerSec,
			"streamsPerSecPerCore": streamsPerSec / float64(runtime.GOMAXPROCS(0)),
			"appendMs":             summarize(appendMs),
			"stalenessMs":          summarize(stalenessMs),
			"bitwiseMatch":         mismatches == 0,
		},
	}
	rep.failIf(s.Errors > 0, "%d/%d streams failed", s.Errors, s.Requests)
	rep.failIf(mismatches > 0, "%d streams finished off the batch score", mismatches)
	rep.failIf(o.streamsMinRate > 0 && streamsPerSec < o.streamsMinRate,
		"streams/sec %.1f below the -streams-min-rate floor %.1f", streamsPerSec, o.streamsMinRate)
	return rep, nil
}
