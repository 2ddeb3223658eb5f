package gate

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// ScoreChunk makes the gate a jobs.Runner: each chunk of a bulk job is
// scored by one replica, chosen by consistent-hashing the composite key
// model#chunkIndex. Spreading on the chunk index — not just the model —
// is the scatter half of scatter/gather: a big job fans out over every
// healthy replica instead of camping on the model's interactive
// primary, and the jobs manager's contiguous frontier is the gather
// half, merging partial scores back into deterministic sample order.
//
// Each attempt asks the replica for the binary partial-scores frame
// (Accept: application/x-mfod-scores) so float64 scores round-trip
// bitwise-exactly. Requests ride the per-replica resilience client, so
// chunk legs inherit the same breaker, retry and deadline-budget
// behaviour as interactive traffic. A failed candidate falls through to
// the next replica in ring order; errors that survive both candidates
// go back to the manager, which retries the chunk with backoff —
// that is what lets a job survive a replica killed mid-flight.
func (g *Gate) ScoreChunk(ctx context.Context, model string, c jobs.Chunk) ([]float64, error) {
	f := g.cfg.Table.Fleet()
	order := g.rankedOrder(model + "#" + strconv.Itoa(c.Index))
	if len(order) == 0 {
		return nil, fmt.Errorf("gate: empty fleet")
	}
	if len(order) > 2 {
		order = order[:2]
	}
	body := wire.EncodeRequest(wire.Request{Dataset: c.Dataset})
	var lastErr error
	for _, name := range order {
		u := scoreURL(f.urls[name], "/v1/score", model,
			map[string][]string{"start": {strconv.Itoa(c.Start)}})
		resp, err := g.client(name).Do(ctx, http.MethodPost, u, wire.ContentType, wire.ScoresContentType, body)
		g.cfg.Metrics.replicas.Inc(name, outcome(err))
		if err != nil {
			lastErr = fmt.Errorf("replica %s: %w", name, err)
			continue
		}
		g.answered(model, resp)
		scores, err := decodeChunkResponse(resp, c)
		if err != nil {
			if jobs.IsFatal(err) {
				return nil, err
			}
			lastErr = fmt.Errorf("replica %s: %w", name, err)
			continue
		}
		return scores, nil
	}
	return nil, lastErr
}

// decodeChunkResponse turns one replica answer into the chunk's scores.
// Definitive rejections (4xx except 429) are fatal — a chunk the fleet
// rejects once will be rejected forever; everything else is transient
// and worth a retry elsewhere or later.
func decodeChunkResponse(resp *http.Response, c jobs.Chunk) ([]float64, error) {
	defer resp.Body.Close()
	want := len(c.Dataset.Samples)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		ae := httpapi.ParseError(resp.StatusCode, raw)
		err := fmt.Errorf("gate: chunk upstream %d %s: %s", resp.StatusCode, ae.Code, ae.Message)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, jobs.Fatal(err)
		}
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	frame, err := wire.DecodeScores(raw)
	if err != nil {
		return nil, err
	}
	// A frame for the wrong offset or size means the replica answered
	// some other request — treat it as transient and re-ask.
	if frame.Start != c.Start || len(frame.Values) != want {
		return nil, fmt.Errorf("gate: scores frame start=%d n=%d, want start=%d n=%d",
			frame.Start, len(frame.Values), c.Start, want)
	}
	return frame.Values, nil
}

// defaultJobOptions are the gate-side bulk-scoring defaults: chunks
// sized to amortise per-request overhead without hogging one replica,
// and a small token budget so interactive traffic keeps absolute
// priority over bulk work.
func defaultJobOptions(timeout time.Duration) jobs.Options {
	return jobs.Options{
		ChunkSize:    256,
		Tokens:       4,
		MaxAttempts:  6,
		Backoff:      100 * time.Millisecond,
		ChunkTimeout: timeout,
	}
}
