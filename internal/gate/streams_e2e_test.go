package gate_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// streamChunkBody builds an append body for observations [from, to) of
// a sample, always carrying the model name so a gate failover to a
// fresh replica recreates the stream transparently.
func streamChunkBody(t *testing.T, times []float64, values [][]float64, from, to int, model string) []byte {
	t.Helper()
	pts := make([]stream.Point, 0, to-from)
	for j := from; j < to; j++ {
		v := make([]float64, len(values))
		for k := range values {
			v[k] = values[k][j]
		}
		pts = append(pts, stream.Point{T: times[j], V: v})
	}
	raw, err := json.Marshal(struct {
		Model  string         `json:"model"`
		Points []stream.Point `json:"points"`
	}{Model: model, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// gateAppend posts one chunk through the gate with ?score=1 and returns
// the piggybacked score event.
func gateAppend(t *testing.T, base, id string, body []byte) stream.AppendResult {
	t.Helper()
	resp, err := http.Post(base+"/v1/streams/"+id+"/append?score=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res stream.AppendResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gate append = %d (decode: %v)", resp.StatusCode, err)
	}
	return res
}

// TestGateStreamE2E drives the full streaming path through the gate:
// appends shard by stream id to one replica's incremental state, the
// NDJSON watch relays per-append events with widening coverage, the
// fleet-wide listing gathers ids, and killing the stream's home replica
// mid-stream re-routes to the ring successor where the writer's
// model-carrying appends recreate the stream and finish the curve.
func TestGateStreamE2E(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.LoadPipelineJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := d.Samples[0]
	n := len(s.Times)
	want, err := pipe.ScoreOne(s)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for health to see the fleet.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(h.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("gate never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- Phase 1: a stream completed through the gate scores exactly
	// like the batch path, and events widen monotonically. ---
	const chunk = 10
	id := "e2e-full"
	lastTo := -1
	var final stream.AppendResult
	for at := 0; at < n; at += chunk {
		end := at + chunk
		if end > n {
			end = n
		}
		final = gateAppend(t, h.base, id, streamChunkBody(t, s.Times, s.Values, at, end, "m0"))
		if final.Score == nil {
			t.Fatalf("append [%d,%d): no piggybacked score", at, end)
		}
		if final.Score.GridTo < lastTo {
			t.Fatalf("observed sub-domain shrank: %d -> %d", lastTo, final.Score.GridTo)
		}
		lastTo = final.Score.GridTo
	}
	if final.Points != n || final.Score.Coverage != 1 {
		t.Fatalf("completed stream: points=%d coverage=%v", final.Points, final.Score.Coverage)
	}
	if math.Float64bits(final.Score.Score) != math.Float64bits(want) {
		t.Fatalf("gate stream score %v, want batch %v", final.Score.Score, want)
	}

	// The fleet-wide listing gathers the id whichever replica holds it.
	resp, err := http.Get(h.base + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []string `json:"streams"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gate stream listing = %d (%v)", resp.StatusCode, err)
	}
	found := false
	for _, got := range listing.Streams {
		found = found || got == id
	}
	if !found {
		t.Fatalf("fleet listing %v missing %q", listing.Streams, id)
	}

	// --- Phase 2: the NDJSON watch relays through the gate with
	// per-event flushing. ---
	wid := "e2e-watch"
	gateAppend(t, h.base, wid, streamChunkBody(t, s.Times, s.Values, 0, 5, "m1"))
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wreq, err := http.NewRequestWithContext(wctx, http.MethodGet, h.base+"/v1/streams/"+wid+"/score?watch=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("gate watch = %d", wresp.StatusCode)
	}
	lines := make(chan stream.ScoreEvent, 16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(wresp.Body)
		for sc.Scan() {
			var ev stream.ScoreEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return
			}
			lines <- ev
		}
	}()
	readEvent := func(what string) stream.ScoreEvent {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatalf("watch closed before %s", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no watch event for %s: the gate relay must flush per line", what)
		}
		panic("unreachable")
	}
	first := readEvent("initial event")
	gateAppend(t, h.base, wid, streamChunkBody(t, s.Times, s.Values, 5, 12, "m1"))
	second := readEvent("post-append event")
	if second.GridTo < first.GridTo || second.Seq <= first.Seq {
		t.Fatalf("watch events did not widen: %+v then %+v", first, second)
	}

	// --- Phase 3: kill the stream's home replica mid-stream. The ring
	// re-routes the id; the writer keeps appending (model on every
	// chunk), the successor recreates the stream and — with the whole
	// curve resent — finishes at the exact batch score. ---
	kid := "e2e-kill"
	primary, _ := h.g.Route(kid)
	gateAppend(t, h.base, kid, streamChunkBody(t, s.Times, s.Values, 0, n/2, "m2"))
	h.replicas[primary].Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if p, sec := h.g.Route(kid); p != primary && sec != primary {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never routed the stream around the killed replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The new home never saw the first half: resend the whole curve.
	// Appends are retried through transient 502s while breakers and
	// health converge on the new ring order.
	var res stream.AppendResult
	for at := 0; at < n; at += chunk {
		end := at + chunk
		if end > n {
			end = n
		}
		body := streamChunkBody(t, s.Times, s.Values, at, end, "m2")
		ok := false
		for attempt := 0; attempt < 50 && !ok; attempt++ {
			r2, err := http.Post(h.base+"/v1/streams/"+kid+"/append?score=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if r2.StatusCode == http.StatusOK {
				if err := json.NewDecoder(r2.Body).Decode(&res); err != nil {
					t.Fatal(err)
				}
				ok = true
			}
			r2.Body.Close()
			if !ok {
				time.Sleep(20 * time.Millisecond)
			}
		}
		if !ok {
			t.Fatalf("append [%d,%d) never succeeded after failover", at, end)
		}
	}
	if res.Points != n || res.Score == nil || res.Score.Coverage != 1 {
		t.Fatalf("post-failover stream: %+v", res)
	}
	if math.Float64bits(res.Score.Score) != math.Float64bits(want) {
		t.Fatalf("post-failover score %v, want batch %v", res.Score.Score, want)
	}
	newHome, _ := h.g.Route(kid)
	if newHome == primary {
		t.Fatalf("stream still routed to killed replica %s", primary)
	}
	t.Logf("stream %s failed over %s -> %s", kid, primary, newHome)
}
