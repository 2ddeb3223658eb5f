package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/stream"
)

// streamStack builds a registry with one model named "ecg", a stream
// manager with the given options, and an httptest server exposing the
// full v1 surface including the streaming routes.
func streamStack(t *testing.T, sopt StreamOptions, seed int64) (*httptest.Server, *stream.Manager, *Metrics, *core.Pipeline, fda.Dataset) {
	t.Helper()
	dir := t.TempDir()
	path, pipe, ds := saveModel(t, dir, "model.json", seed)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	pool := NewPool(PoolOptions{Workers: 1, Metrics: metrics})
	t.Cleanup(pool.Close)
	mgr, err := NewStreamManager(reg, metrics, sopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv, err := NewServer(Config{
		Registry: reg,
		Pool:     pool,
		Metrics:  metrics,
		Timeout:  10 * time.Second,
		Streams:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, mgr, metrics, pipe, ds
}

// streamAppendBody marshals an append request for the given slice of a
// sample's observations.
func streamAppendBody(t *testing.T, s fda.Sample, idx []int) []byte {
	t.Helper()
	pts := make([]stream.Point, 0, len(idx))
	for _, j := range idx {
		v := make([]float64, len(s.Values))
		for k := range s.Values {
			v[k] = s.Values[k][j]
		}
		pts = append(pts, stream.Point{T: s.Times[j], V: v})
	}
	b, err := json.Marshal(struct {
		Model  string         `json:"model"`
		Points []stream.Point `json:"points"`
	}{Model: "ecg", Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosStreamShedEvictRace drives one hot stream with concurrent
// chunked appends (arriving out of order) and concurrent score pollers
// while the serve.shed fault probabilistically 429s appends and the
// janitor evicts a second, idle stream. Invariants: shed appends are
// clean rejections that the writer retries (no lost observations — the
// stream ends with every point exactly once and its final score equals
// the batch score bitwise), each poller observes a monotonically
// widening observed sub-domain, and eviction of the idle neighbour
// never perturbs the hot stream.
func TestChaosStreamShedEvictRace(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, mgr, _, pipe, ds := streamStack(t, StreamOptions{IdleTTL: 60 * time.Millisecond}, 26)
	s := ds.Samples[0]
	n := len(s.Times)

	for round := 0; round < chaosRounds(); round++ {
		id := fmt.Sprintf("chaos-%d", round)
		url := ts.URL + "/v1/streams/" + id

		// An idle neighbour: appended once, never touched again. The
		// janitor must evict it while the hot stream is under fire.
		idleURL := ts.URL + "/v1/streams/idle-" + id
		resp, err := http.Post(idleURL+"/append", "application/json",
			bytes.NewReader(streamAppendBody(t, s, []int{0, 1})))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("idle seed append = %d", resp.StatusCode)
		}
		evictedBefore := mgr.EvictedTotal()

		// Probabilistic shedding for the whole round: writers must
		// retry through it without losing observations.
		faultinject.Arm(FaultShed, faultinject.Fault{Probability: 0.4, Seed: int64(round + 1)})

		// Chunk the sample's observations and deal the chunks to
		// writers in shuffled order, so arrival order at the stream is
		// scrambled across goroutines and within each writer.
		const chunk = 5
		var chunks [][]int
		for at := 0; at < n; at += chunk {
			end := at + chunk
			if end > n {
				end = n
			}
			idx := make([]int, 0, chunk)
			for j := at; j < end; j++ {
				idx = append(idx, j)
			}
			chunks = append(chunks, idx)
		}
		rng := rand.New(rand.NewSource(int64(round) + 99))
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

		const writers = 4
		var wg sync.WaitGroup
		errc := make(chan error, writers+2)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := w; c < len(chunks); c += writers {
					body := streamAppendBody(t, s, chunks[c])
					for attempt := 0; ; attempt++ {
						resp, err := http.Post(url+"/append", "application/json", bytes.NewReader(body))
						if err != nil {
							errc <- fmt.Errorf("writer %d: %v", w, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							break
						}
						if resp.StatusCode != http.StatusTooManyRequests || attempt > 200 {
							errc <- fmt.Errorf("writer %d: status %d (attempt %d)", w, resp.StatusCode, attempt)
							return
						}
					}
				}
			}(w)
		}

		// Pollers: the observed sub-domain may only widen. 422 means
		// "not ready yet" and is fine early on; 5xx never is.
		stopPoll := make(chan struct{})
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				last := -1
				for {
					select {
					case <-stopPoll:
						return
					default:
					}
					resp, err := http.Get(url + "/score")
					if err != nil {
						errc <- fmt.Errorf("poller %d: %v", p, err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK:
						var ev stream.ScoreEvent
						if err := json.Unmarshal(raw, &ev); err != nil {
							errc <- fmt.Errorf("poller %d: bad score event %q: %v", p, raw, err)
							return
						}
						if ev.GridTo < last {
							errc <- fmt.Errorf("poller %d: sub-domain shrank %d -> %d", p, last, ev.GridTo)
							return
						}
						last = ev.GridTo
					case resp.StatusCode >= 500:
						errc <- fmt.Errorf("poller %d: status %d body %s", p, resp.StatusCode, raw)
						return
					}
				}
			}(p)
		}

		done := make(chan struct{})
		go func() { defer close(done); wg.Wait() }()
		// Writers finish first; then stop the pollers.
		for {
			select {
			case err := <-errc:
				t.Fatal(err)
			case <-time.After(10 * time.Millisecond):
			}
			if st, ok := mgr.Get(id); ok && st.Status().Points == n {
				break
			}
		}
		close(stopPoll)
		<-done
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		faultinject.Disarm(FaultShed)

		// No lost (or duplicated) observations despite shedding and
		// scrambled arrival: the stream holds exactly the sample, so
		// its full-coverage score is the batch score, bitwise.
		st, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("round %d: hot stream evicted", round)
		}
		if got := st.Status().Points; got != n {
			t.Fatalf("round %d: stream holds %d points, want %d", round, got, n)
		}
		ev, err := mgr.Score(id)
		if err != nil {
			t.Fatalf("round %d: final score: %v", round, err)
		}
		want, err := pipe.ScoreOne(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ev.Score) != math.Float64bits(want) {
			t.Fatalf("round %d: final score %v, want batch %v", round, ev.Score, want)
		}
		if ev.Coverage != 1 {
			t.Fatalf("round %d: coverage %v at completion", round, ev.Coverage)
		}

		// The idle neighbour was evicted while the hot stream survived.
		deadline := time.Now().Add(2 * time.Second)
		for mgr.EvictedTotal() == evictedBefore {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: idle stream never evicted", round)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, ok := mgr.Get("idle-" + id); ok {
			t.Fatalf("round %d: idle stream still present after eviction", round)
		}
		mgr.Delete(id)
	}

	// The streaming series made it into the Prometheus surface.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"mfod_streams_active ", "mfod_stream_appends_total ", "mfod_streams_evicted_total ", "mfod_stream_fits_total "} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}
}
