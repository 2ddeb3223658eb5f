package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fda"
)

// Chaos suite: every test arms one of the production fault points
// (core.FaultScore, FaultReload, FaultBatch — see internal/faultinject)
// and asserts the service degrades instead of dying. `make test-chaos`
// runs these under the race detector with MFOD_CHAOS=1, which repeats
// the HTTP-level scenarios to shake out interleavings.

// chaosRounds scales scenario repetitions: 1 normally, more under the
// dedicated chaos gate.
func chaosRounds() int {
	if os.Getenv("MFOD_CHAOS") != "" {
		return 5
	}
	return 1
}

// TestChaosPanicQuarantinesBatch queues three one-curve jobs on one
// worker with a fault that panics exactly once, in the first job's
// Score call. The panic is quarantined to that job: it fails with a
// *PanicError carrying the value and stack, its neighbours score, the
// panic is counted, and the worker keeps serving.
func TestChaosPanicQuarantinesBatch(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	m, ds := newTestModel(t, 21)
	metrics := NewMetrics()
	p := NewPool(PoolOptions{Workers: 1, Metrics: metrics})
	defer p.Close()

	faultinject.Arm(core.FaultScore, faultinject.Fault{Panic: "chaos: detector exploded", Times: 1})
	jobs := make([]*Job, 3)
	for i := range jobs {
		j, err := p.Enqueue(context.Background(), m, fda.Dataset{Samples: ds.Samples[i : i+1]}, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	res0, _ := jobs[0].Wait(context.Background())
	var pe *PanicError
	if !errors.As(res0.Err, &pe) {
		t.Fatalf("job 0 err = %v, want *PanicError", res0.Err)
	}
	if pe.Value != "chaos: detector exploded" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	for i, j := range jobs[1:] {
		res, _ := j.Wait(context.Background())
		if res.Err != nil || len(res.Scores) != 1 {
			t.Fatalf("neighbour job %d: err=%v scores=%v — must survive the poisoned job", i+1, res.Err, res.Scores)
		}
	}
	var page strings.Builder
	metrics.reg.WritePrometheus(&page)
	if !strings.Contains(page.String(), "\nmfod_panics_total 1\n") {
		t.Fatalf("page lacks mfod_panics_total 1:\n%s", page.String())
	}
	if hits, fired := faultinject.Hits(core.FaultScore); fired != 1 || hits != 3 {
		t.Fatalf("fault point saw %d hits / %d fired, want 3 / 1", hits, fired)
	}
}

// TestChaosPanicOverHTTP injects a scoring panic through the whole HTTP
// stack: the poisoned request gets a 500, the panic is counted, and the
// worker pool keeps serving subsequent requests.
func TestChaosPanicOverHTTP(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 2}, 22)
	for round := 0; round < chaosRounds(); round++ {
		faultinject.Arm(core.FaultScore, faultinject.Fault{Panic: "chaos", Times: 1})
		resp, body := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("round %d: poisoned request = %d, want 500 (body %s)", round, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "panic during scoring") {
			t.Fatalf("round %d: 500 body %s", round, body)
		}
		// The pool survived: the very next request scores normally.
		resp2, body2 := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{1}, 0))
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after panic = %d, want 200 (body %s)", round, resp2.StatusCode, body2)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	// Exactly one recovered panic per round, no more.
	if want := "mfod_panics_total " + strconv.Itoa(chaosRounds()); !strings.Contains(string(raw), want) {
		t.Fatalf("metrics missing %q:\n%s", want, raw)
	}
}

// TestChaosReloadFaultKeepsOldSnapshot injects a reload failure and
// asserts the previous pipeline snapshot keeps serving.
func TestChaosReloadFaultKeepsOldSnapshot(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, reg, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 23)
	m, _ := reg.Get("ecg")
	before := m.Pipeline()

	faultinject.Arm(FaultReload, faultinject.Fault{})
	resp, body := postScore(t, ts.URL+"/v1/reload?model=ecg", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted reload = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "previous model still serving") {
		t.Fatalf("500 body %s", body)
	}
	if m.Pipeline() != before {
		t.Fatal("failed reload must keep the old snapshot")
	}
	// The old snapshot still scores.
	resp2, body2 := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("score during reload outage = %d (body %s)", resp2.StatusCode, body2)
	}
	// Fault cleared: reload works again.
	faultinject.Disarm(FaultReload)
	resp3, body3 := postScore(t, ts.URL+"/v1/reload?model=ecg", nil)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("reload after disarm = %d (body %s)", resp3.StatusCode, body3)
	}
}

// TestChaosInjectedLatency504 holds a worker past the request deadline
// with a latency fault; the request times out with 504 and the service
// recovers once the fault is disarmed.
func TestChaosInjectedLatency504(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts, _, _, _, _, ds := testStack(t, PoolOptions{Workers: 1}, 24)
	faultinject.Arm(FaultBatch, faultinject.Fault{Delay: 400 * time.Millisecond})
	resp, body := postScore(t, ts.URL+"/v1/score?model=ecg&timeout=50ms", scoreBody(t, ds, []int{0}, 0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow batch = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	faultinject.Disarm(FaultBatch)
	resp2, body2 := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("score after disarm = %d (body %s)", resp2.StatusCode, body2)
	}
}

// TestChaosBatchErrorFailsWholeBatch arms the pool's per-job error
// fault: the job it hits fails with the injected error, whole, and the
// pool keeps serving afterwards.
func TestChaosBatchErrorFailsWholeBatch(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	m, ds := newTestModel(t, 25)
	p := NewPool(PoolOptions{Workers: 1, Metrics: NewMetrics()})
	defer p.Close()
	faultinject.Arm(FaultBatch, faultinject.Fault{Times: 1})
	j, err := p.Enqueue(context.Background(), m, fda.Dataset{Samples: ds.Samples[:1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := j.Wait(context.Background())
	if !ok || !errors.Is(res.Err, faultinject.ErrInjected) {
		t.Fatalf("ok=%v err=%v, want injected error", ok, res.Err)
	}
	// The single injection is spent; the next job scores.
	j2, err := p.Enqueue(context.Background(), m, fda.Dataset{Samples: ds.Samples[:1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, ok := j2.Wait(context.Background())
	if !ok || res2.Err != nil || len(res2.Scores) != 1 {
		t.Fatalf("job after injected batch error: ok=%v err=%v", ok, res2.Err)
	}
}
