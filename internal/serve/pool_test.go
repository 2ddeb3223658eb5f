package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fda"
)

// newTestModel wraps a fitted pipeline in a registry Model without disk.
func newTestModel(t *testing.T, seed int64) (*Model, fda.Dataset) {
	t.Helper()
	path, _, ds := saveModel(t, t.TempDir(), "m.json", seed)
	r := NewRegistry()
	if err := r.Load("m", path); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Get("m")
	return m, ds
}

func TestPoolScoresMatchDirect(t *testing.T) {
	m, ds := newTestModel(t, 1)
	pipe := m.Pipeline()
	want, err := pipe.Score(ds)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolOptions{Workers: 3, QueueCap: 32})
	defer p.Close()

	// Submit every sample as its own concurrent request; pooled scoring
	// must not change any score.
	var wg sync.WaitGroup
	got := make([]float64, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			one := fda.Dataset{Samples: []fda.Sample{ds.Samples[i]}}
			j, err := p.Enqueue(context.Background(), m, one, 0)
			if err != nil {
				t.Error(err)
				return
			}
			res, ok := j.Wait(context.Background())
			if !ok || res.Err != nil {
				t.Errorf("sample %d: ok=%v err=%v", i, ok, res.Err)
				return
			}
			got[i] = res.Scores[0]
		}(i)
	}
	wg.Wait()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pooled score[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestPoolMultiSampleJobWithExplanations(t *testing.T) {
	m, ds := newTestModel(t, 2)
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	sub := ds.Subset([]int{0, 1, 2})
	j, err := p.Enqueue(context.Background(), m, sub, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := j.Wait(context.Background())
	if !ok || res.Err != nil {
		t.Fatalf("ok=%v err=%v", ok, res.Err)
	}
	if len(res.Scores) != 3 || len(res.Explanations) != 3 {
		t.Fatalf("got %d scores, %d explanations", len(res.Scores), len(res.Explanations))
	}
	for i, exps := range res.Explanations {
		if len(exps) != 2 {
			t.Fatalf("sample %d: %d explanations, want 2", i, len(exps))
		}
	}
}

// gatedPool returns a pool whose single worker blocks on gate at the
// start of every job, signalling each pickup on started.
func gatedPool(queueCap int) (p *Pool, started chan *Job, gate chan struct{}) {
	started = make(chan *Job, 16)
	gate = make(chan struct{})
	p = NewPool(PoolOptions{Workers: 1, QueueCap: queueCap})
	p.testHook = func(j *Job) {
		started <- j
		<-gate
	}
	return p, started, gate
}

func TestPoolQueueFull(t *testing.T) {
	m, ds := newTestModel(t, 3)
	one := fda.Dataset{Samples: ds.Samples[:1]}
	p, started, gate := gatedPool(1)
	defer close(gate)
	defer p.Close()

	j1, err := p.Enqueue(context.Background(), m, one, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is now holding j1
	j2, err := p.Enqueue(context.Background(), m, one, 0)
	if err != nil {
		t.Fatalf("second job should queue: %v", err)
	}
	if _, err := p.Enqueue(context.Background(), m, one, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third job error = %v, want ErrQueueFull", err)
	}
	gate <- struct{}{} // release j1
	<-started
	gate <- struct{}{} // release j2
	for _, j := range []*Job{j1, j2} {
		if res, ok := j.Wait(context.Background()); !ok || res.Err != nil {
			t.Fatalf("queued job failed: ok=%v err=%v", ok, res.Err)
		}
	}
}

func TestPoolSkipsExpiredJobs(t *testing.T) {
	m, ds := newTestModel(t, 4)
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Dead on arrival: rejected at Enqueue, before taking a queue slot.
	if _, err := p.Enqueue(ctx, m, ds, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enqueue with dead ctx = %v, want context.Canceled", err)
	}
	if got := p.Evicted(); got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
}

func TestPoolBadJobDoesNotPoisonBatch(t *testing.T) {
	m, ds := newTestModel(t, 5)
	one := fda.Dataset{Samples: ds.Samples[:1]}
	// A univariate sample: the bivariate model cannot score it.
	badSample := fda.Sample{Times: ds.Samples[0].Times, Values: ds.Samples[0].Values[:1]}
	bad := fda.Dataset{Samples: []fda.Sample{badSample}}

	p, started, gate := gatedPool(8)
	defer close(gate)
	defer p.Close()

	// Hold the worker with a sacrificial job so the good and bad jobs
	// queue up behind it together.
	hold, err := p.Enqueue(context.Background(), m, one, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	good, err := p.Enqueue(context.Background(), m, one, 0)
	if err != nil {
		t.Fatal(err)
	}
	jbad, err := p.Enqueue(context.Background(), m, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // release the holder
	<-started
	gate <- struct{}{} // release the good job
	<-started
	gate <- struct{}{} // release the bad job

	if res, ok := hold.Wait(context.Background()); !ok || res.Err != nil {
		t.Fatalf("holder failed: %v", res.Err)
	}
	res, ok := good.Wait(context.Background())
	if !ok || res.Err != nil {
		t.Fatalf("good job must survive a bad batch neighbour: ok=%v err=%v", ok, res.Err)
	}
	if len(res.Scores) != 1 {
		t.Fatalf("good job scores = %v", res.Scores)
	}
	resBad, ok := jbad.Wait(context.Background())
	if !ok || resBad.Err == nil {
		t.Fatal("bad job must fail individually")
	}
}

func TestPoolCloseDrainsQueuedWork(t *testing.T) {
	m, ds := newTestModel(t, 6)
	one := fda.Dataset{Samples: ds.Samples[:1]}
	p, started, gate := gatedPool(8)

	j1, err := p.Enqueue(context.Background(), m, one, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := p.Enqueue(context.Background(), m, one, 0)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close must reject new work immediately…
	deadline := time.After(2 * time.Second)
	for {
		if _, err := p.Enqueue(context.Background(), m, one, 0); errors.Is(err, ErrPoolClosed) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Enqueue after Close never returned ErrPoolClosed")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while jobs were still queued")
	default:
	}
	// …and still drain everything already accepted.
	go func() {
		for {
			select {
			case <-started:
			case <-closed:
				return
			}
		}
	}()
	close(gate)
	<-closed
	for i, j := range append([]*Job{j1}, queued...) {
		res, ok := j.Wait(context.Background())
		if !ok || res.Err != nil {
			t.Fatalf("job %d lost during drain: ok=%v err=%v", i, ok, res.Err)
		}
	}
}
