package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fda"
)

// testDataset builds n one-channel samples whose identity is encoded in
// the first value, so a misplaced score is detectable.
func testDataset(n int) fda.Dataset {
	ds := fda.Dataset{Samples: make([]fda.Sample, n)}
	for i := range ds.Samples {
		ds.Samples[i] = fda.Sample{
			Times:  []float64{0, 1},
			Values: [][]float64{{float64(i), float64(i) + 0.5}},
		}
	}
	return ds
}

// echoRunner scores each sample as its identity value, optionally
// failing transiently or fatally.
type echoRunner struct {
	mu        sync.Mutex
	calls     int
	failFirst int // first failFirst calls return a transient error
	fatalOn   int // call number (1-based) returning a fatal error; 0 disables
	inflight  atomic.Int32
	peak      atomic.Int32
	delay     time.Duration
}

func (r *echoRunner) ScoreChunk(ctx context.Context, model string, c Chunk) ([]float64, error) {
	cur := r.inflight.Add(1)
	defer r.inflight.Add(-1)
	for {
		peak := r.peak.Load()
		if cur <= peak || r.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	if r.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(r.delay):
		}
	}
	r.mu.Lock()
	r.calls++
	n := r.calls
	r.mu.Unlock()
	if r.fatalOn > 0 && n == r.fatalOn {
		return nil, Fatal(fmt.Errorf("model rejects chunk %d", c.Index))
	}
	if n <= r.failFirst {
		return nil, fmt.Errorf("transient failure %d", n)
	}
	out := make([]float64, len(c.Dataset.Samples))
	for i, s := range c.Dataset.Samples {
		out[i] = s.Values[0][0] * 2
	}
	return out, nil
}

func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	m, err := NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// drain reads the full result stream via WaitResults, asserting cursor
// continuity.
func drain(t *testing.T, j *Job) []float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []float64
	cursor := 0
	for {
		vals, next, final, err := j.WaitResults(ctx, cursor)
		if err != nil {
			t.Fatalf("WaitResults(%d): %v", cursor, err)
		}
		if next != cursor+len(vals) {
			t.Fatalf("cursor hole: %d + %d values -> next %d", cursor, len(vals), next)
		}
		out = append(out, vals...)
		cursor = next
		if final {
			return out
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Options{Runner: &echoRunner{}, ChunkSize: 7, Tokens: 3})
	ds := testDataset(50)
	j, err := m.Submit("m", ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, j)
	if len(got) != 50 {
		t.Fatalf("got %d scores, want 50", len(got))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(float64(i)*2) {
			t.Fatalf("score %d = %v, want %v (misordered merge?)", i, v, float64(i)*2)
		}
	}
	st := j.Status()
	if st.State != StateDone || st.Scored != 50 || st.DoneChunks != st.TotalChunks {
		t.Fatalf("terminal status %+v", st)
	}
	if st.TotalChunks != 8 { // ceil(50/7)
		t.Fatalf("total chunks = %d, want 8", st.TotalChunks)
	}
	if got, ok := m.Get(j.ID()); !ok || got != j {
		t.Fatal("Get lost the job")
	}
}

func TestTransientErrorsRetry(t *testing.T) {
	r := &echoRunner{failFirst: 3}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 10, Backoff: time.Millisecond})
	j, err := m.Submit("m", testDataset(30), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, j)
	if len(got) != 30 {
		t.Fatalf("got %d scores", len(got))
	}
	if st := j.Status(); st.Retries == 0 {
		t.Fatal("expected retries to be counted")
	}
}

func TestFatalErrorFailsJob(t *testing.T) {
	r := &echoRunner{fatalOn: 2}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 5, Tokens: 1, Backoff: time.Millisecond})
	j, err := m.Submit("m", testDataset(25), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cursor := 0
	var werr error
	for {
		vals, next, final, err := j.WaitResults(ctx, cursor)
		if err != nil {
			werr = err
			break
		}
		cursor = next
		_ = vals
		if final {
			t.Fatal("job finished despite fatal error")
		}
	}
	if werr == nil {
		t.Fatal("wait on a fatally failed job returned no error")
	}
	if st := j.Status(); st.State != StateFailed || st.Error == "" {
		t.Fatalf("status %+v, want failed with message", st)
	}
}

func TestAttemptsExhaustedFailsJob(t *testing.T) {
	r := &echoRunner{failFirst: 1 << 30}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 10, MaxAttempts: 2, Backoff: time.Millisecond})
	j, err := m.Submit("m", testDataset(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, _, err := j.WaitResults(ctx, 0); err == nil {
		t.Fatal("want failure")
	}
	if st := j.Status(); st.State != StateFailed {
		t.Fatalf("state = %s", st.State)
	}
}

func TestTokenBudgetBoundsConcurrency(t *testing.T) {
	r := &echoRunner{delay: 5 * time.Millisecond}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 2, Tokens: 2})
	j, err := m.Submit("m", testDataset(40), 0)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	if peak := r.peak.Load(); peak > 2 {
		t.Fatalf("peak in-flight chunks = %d, budget is 2", peak)
	}
}

func TestCancel(t *testing.T) {
	r := &echoRunner{delay: 20 * time.Millisecond}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 1, Tokens: 1})
	j, err := m.Submit("m", testDataset(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	j.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cursor := 0
	for {
		_, next, final, err := j.WaitResults(ctx, cursor)
		if errors.Is(err, ErrCancelled) {
			break
		}
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if final {
			t.Fatal("a cancelled job cannot be done")
		}
		cursor = next
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state = %s", st.State)
	}
}

func TestSubmitLimits(t *testing.T) {
	r := &echoRunner{delay: 50 * time.Millisecond}
	m := newTestManager(t, Options{Runner: r, MaxJobs: 2, ChunkSize: 64})
	if _, err := m.Submit("m", testDataset(4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("m", testDataset(4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("m", testDataset(4), 0); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("third submit: %v, want ErrTooManyJobs", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := NewManager(Options{Runner: &echoRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit("m", testDataset(1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestSplitChunks(t *testing.T) {
	ds := testDataset(10)
	chunks := SplitChunks(ds, 4)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	wantStarts := []int{0, 4, 8}
	wantLens := []int{4, 4, 2}
	for i, c := range chunks {
		if c.Index != i || c.Start != wantStarts[i] || len(c.Dataset.Samples) != wantLens[i] {
			t.Fatalf("chunk %d = {Index:%d Start:%d len:%d}", i, c.Index, c.Start, len(c.Dataset.Samples))
		}
	}
}

// TestResumableCursor exercises the mid-stream resume contract: scores
// handed out before an interruption are never re-sent and never lost.
func TestResumableCursor(t *testing.T) {
	r := &echoRunner{delay: 2 * time.Millisecond}
	m := newTestManager(t, Options{Runner: r, ChunkSize: 5, Tokens: 1})
	j, err := m.Submit("m", testDataset(30), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// First reader takes one batch then "disconnects".
	vals, next, _, err := j.WaitResults(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second reader resumes from the cursor.
	rest := []float64{}
	cursor := next
	for {
		v, n, final, err := j.WaitResults(ctx, cursor)
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, v...)
		cursor = n
		if final {
			break
		}
	}
	all := append(append([]float64(nil), vals...), rest...)
	if len(all) != 30 {
		t.Fatalf("resumed stream yielded %d scores, want 30", len(all))
	}
	for i, v := range all {
		if v != float64(i)*2 {
			t.Fatalf("score %d = %v after resume", i, v)
		}
	}
}

// fateRunner scores like echoRunner, except chunk 1 of model "fail"
// fails fatally and chunk 1 of model "cancel" waits for its context.
type fateRunner struct{ echoRunner }

func (r *fateRunner) ScoreChunk(ctx context.Context, model string, c Chunk) ([]float64, error) {
	switch {
	case model == "fail" && c.Index == 1:
		return nil, Fatal(errors.New("model rejects chunk 1"))
	case model == "cancel" && c.Index == 1:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return r.echoRunner.ScoreChunk(ctx, model, c)
}

// results is what WaitResults(ctx, 0) answers, with the error as text.
type results struct {
	vals  []float64
	next  int
	final bool
	err   string
}

func waitFromZero(t *testing.T, j *Job) results {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	vals, next, final, err := j.WaitResults(ctx, 0)
	r := results{vals: vals, next: next, final: final}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestTerminalJobHoldsNoSamples: a done, a failed and a cancelled job
// stay in the table with their scores and counts, and none of their
// samples. A finalizer on every sample's backing arrays runs while the
// table still holds all three jobs, and afterwards each job answers
// Status and WaitResults from cursor 0 as it did before, bit for bit.
func TestTerminalJobHoldsNoSamples(t *testing.T) {
	const samples, chunk = 12, 4
	m := newTestManager(t, Options{Runner: &fateRunner{}, Tokens: 1, Backoff: time.Millisecond})
	var finalizers int
	var finalized atomic.Int64
	track := func(p any) {
		finalizers++
		runtime.SetFinalizer(p, func(any) { finalized.Add(1) })
	}
	// submit builds the job's dataset and returns only the job, so the
	// test keeps no reference to the samples.
	submit := func(model string) *Job {
		ds := testDataset(samples)
		track(&ds.Samples[0])
		for i := range ds.Samples {
			s := &ds.Samples[i]
			track(&s.Times[0])
			track(&s.Values[0])
			track(&s.Values[0][0])
		}
		j, err := m.Submit(model, ds, chunk)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	done, failed, cancelled := submit("done"), submit("fail"), submit("cancel")
	deadline := time.Now().Add(10 * time.Second)
	for cancelled.Status().Scored < chunk {
		if time.Now().After(deadline) {
			t.Fatalf("cancel job never merged its first chunk: %+v", cancelled.Status())
		}
		time.Sleep(time.Millisecond)
	}
	cancelled.Cancel()

	jobs := []*Job{done, failed, cancelled}
	want := []State{StateDone, StateFailed, StateCancelled}
	statuses := make([]Status, len(jobs))
	before := make([]results, len(jobs))
	for i, j := range jobs {
		for !j.Status().State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never ended: %+v", j.ID(), j.Status())
			}
			time.Sleep(time.Millisecond)
		}
		statuses[i], before[i] = j.Status(), waitFromZero(t, j)
		if statuses[i].State != want[i] || before[i].next == 0 {
			t.Fatalf("job %s: %+v, results %+v; want %s with a finished prefix", j.ID(), statuses[i], before[i], want[i])
		}
	}

	for finalized.Load() < int64(finalizers) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sample arrays were collected: a terminal job still holds its samples", finalized.Load(), finalizers)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	for i, j := range jobs {
		if got, ok := m.Get(j.ID()); !ok || got != j {
			t.Fatalf("job %s left the table", j.ID())
		}
		if st := j.Status(); st != statuses[i] {
			t.Errorf("job %s status %+v after its samples were collected, was %+v", j.ID(), st, statuses[i])
		}
		after := waitFromZero(t, j)
		if after.next != before[i].next || after.final != before[i].final || after.err != before[i].err || len(after.vals) != len(before[i].vals) {
			t.Fatalf("job %s results %+v after its samples were collected, were %+v", j.ID(), after, before[i])
		}
		for k, v := range after.vals {
			if math.Float64bits(v) != math.Float64bits(before[i].vals[k]) {
				t.Fatalf("job %s score %d = %v, was %v", j.ID(), k, v, before[i].vals[k])
			}
		}
	}
}
