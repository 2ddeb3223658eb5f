package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fda"
)

// ErrQueueFull is returned by Enqueue when the bounded queue is at
// capacity; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: scoring queue full")

// ErrPoolClosed is returned by Enqueue after Close has begun.
var ErrPoolClosed = errors.New("serve: pool closed")

// FaultBatch is the fault-injection point hit at the start of every job
// a worker picks up. Arming it with a delay holds a worker past request
// deadlines (504s); arming it with an error fails the job.
const FaultBatch = "serve.pool.batch"

// PanicError reports a panic recovered inside a worker while scoring or
// explaining one job. The panic is contained: only the affected job
// fails (the HTTP layer maps it to 500) and the worker keeps serving.
type PanicError struct {
	// Value is the value the scoring code panicked with.
	Value any
	// Stack is the goroutine stack captured at recovery, for logs.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: panic during scoring: %v", e.Value)
}

// Job is one scoring request travelling through the pool: the resolved
// model, the curves to score and an optional per-sample explanation
// count. The submitting handler waits on Wait; the worker delivers
// exactly one JobResult.
type Job struct {
	model   *Model
	ds      fda.Dataset
	explain int
	ctx     context.Context
	done    chan JobResult
}

// JobResult carries the outcome of one Job.
type JobResult struct {
	// Scores holds one outlyingness score per submitted sample.
	Scores []float64
	// Explanations, when requested, holds the top-k deviating grid
	// positions per sample.
	Explanations [][]core.Explanation
	// Err reports a scoring failure for this job only.
	Err error
}

// Wait blocks until the worker delivers the result or ctx expires; the
// second return is false on expiry (the HTTP layer maps it to 504). A
// job abandoned by its waiter is detected by the worker through the same
// context and skipped or discarded cheaply.
func (j *Job) Wait(ctx context.Context) (JobResult, bool) {
	select {
	case r := <-j.done:
		return r, true
	case <-ctx.Done():
		return JobResult{}, false
	}
}

// PoolOptions configures the worker pool.
type PoolOptions struct {
	// Workers is the number of scoring goroutines; 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs; 0
	// means 64. A full queue rejects new work instead of building an
	// unbounded backlog.
	QueueCap int
	// Metrics, when non-nil, gets the pool's queue depth and its panic
	// and deadline counts as families read at scrape time.
	Metrics *Metrics
}

// Pool is a bounded worker pool for scoring jobs. Each worker takes one
// job per wake-up and scores it with one pipeline call; the bounded
// queue keeps overload failures fast and explicit. Jobs are never merged:
// scoring is per sample, so a merged call would share no work.
type Pool struct {
	queue chan *Job

	mu     sync.RWMutex // guards closed vs. sends on queue
	closed bool
	wg     sync.WaitGroup

	// Deadline accounting: evicted counts jobs whose context was already
	// dead when a worker picked them up (no scoring spent); wasted counts
	// jobs scored to completion at or after their own deadline — the
	// signal the SLO harness gates on; cancelled counts jobs scored for a
	// caller that cancelled before that deadline (a hedge loser, a
	// disconnect). panics counts recovered scoring panics. These are the
	// only copies: the metrics page reads them at scrape time.
	evicted   atomic.Uint64
	wasted    atomic.Uint64
	cancelled atomic.Uint64
	panics    atomic.Uint64

	// Drain-rate EWMA (jobs/second across all workers), feeding the
	// Retry-After computation for 429 responses.
	rateMu   sync.Mutex
	rateEWMA float64
	rateLast time.Time

	// testHook, when set (tests only), runs at the start of every job
	// before any scoring; it lets tests hold a worker to fill the queue.
	testHook func(j *Job)
}

// NewPool starts the workers and returns the pool. Call Close to drain.
func NewPool(opt PoolOptions) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 64
	}
	p := &Pool{queue: make(chan *Job, opt.QueueCap)}
	if m := opt.Metrics; m != nil {
		m.reg.GaugeFunc("mfod_queue_depth", "Jobs waiting in the scoring queue.", p.QueueDepth)
		m.reg.CounterFunc("mfod_panics_total", "Scoring panics recovered by the worker pool.", p.panics.Load)
		m.reg.CounterFunc("mfod_evicted_total", "Queued jobs dropped because their deadline passed before scoring.", p.Evicted)
		m.reg.CounterFunc("mfod_wasted_total", "Jobs scored to completion after their deadline had passed.", p.Wasted)
		m.reg.CounterFunc("mfod_cancelled_total",
			"Jobs scored to completion after their caller cancelled them before the deadline.", p.Cancelled)
	}
	p.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go p.worker()
	}
	return p
}

// QueueDepth returns the number of jobs waiting in the queue.
func (p *Pool) QueueDepth() int { return len(p.queue) }

// Evicted returns how many queued jobs were dropped because their
// deadline had already passed when a worker reached them.
func (p *Pool) Evicted() uint64 { return p.evicted.Load() }

// Wasted returns how many jobs were scored to completion at or after
// their deadline — work the deadline machinery should have dropped.
func (p *Pool) Wasted() uint64 { return p.wasted.Load() }

// Cancelled returns how many jobs were scored to completion after their
// caller cancelled them before the deadline: a hedge loser, or a client
// that disconnected.
func (p *Pool) Cancelled() uint64 { return p.cancelled.Load() }

// RetryAfter estimates, in whole seconds, how long a rejected caller
// should wait before the queue has drained: current depth (plus the
// rejected job itself) divided by the measured drain rate, clamped to
// [1, 60]. With no throughput observed yet it answers 1 — optimistic,
// but honest about a server that has done no work to measure.
func (p *Pool) RetryAfter() int {
	p.rateMu.Lock()
	rate := p.rateEWMA
	p.rateMu.Unlock()
	if rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(len(p.queue)+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// observeDrain feeds one finished job into the drain-rate EWMA.
// Consecutive job completions across all workers approximate aggregate
// throughput; smoothing (α=0.2) keeps one slow or instant job from
// whipsawing the advertised Retry-After.
func (p *Pool) observeDrain() {
	now := time.Now()
	p.rateMu.Lock()
	if !p.rateLast.IsZero() {
		if dt := now.Sub(p.rateLast).Seconds(); dt > 0 {
			inst := 1 / dt
			if p.rateEWMA == 0 {
				p.rateEWMA = inst
			} else {
				p.rateEWMA = 0.8*p.rateEWMA + 0.2*inst
			}
		}
	}
	p.rateLast = now
	p.rateMu.Unlock()
}

// Enqueue submits curves for scoring against m's current pipeline
// snapshot. It never blocks: a full queue returns ErrQueueFull
// immediately. ctx bounds the job's whole life — queue wait plus
// scoring.
func (p *Pool) Enqueue(ctx context.Context, m *Model, ds fda.Dataset, explain int) (*Job, error) {
	if err := ctx.Err(); err != nil {
		// Dead on arrival: a request whose deadline has already passed
		// must not take a queue slot from one that can still make it.
		p.evicted.Add(1)
		return nil, err
	}
	j := &Job{model: m, ds: ds, explain: explain, ctx: ctx, done: make(chan JobResult, 1)}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- j:
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// Close stops accepting work and blocks until the workers have drained
// every queued job — the graceful-shutdown path. Safe to call once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}

// worker scores one job per wake-up until Close drains the queue.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.run(j)
	}
}

// run scores one job against its model's current pipeline snapshot: one
// Score call, then an explanation per sample when the job asked for
// them. A job whose waiter is already gone is evicted unscored, and a
// panic fails this job alone.
func (p *Pool) run(j *Job) {
	if p.testHook != nil {
		p.testHook(j)
	}
	defer p.observeDrain()
	if err := faultinject.Hit(FaultBatch); err != nil {
		j.done <- JobResult{Err: err}
		return
	}
	if err := j.ctx.Err(); err != nil {
		// The waiter is gone (deadline or disconnect): don't burn
		// smoothing time on an answer nobody reads.
		p.evicted.Add(1)
		j.done <- JobResult{Err: err}
		return
	}
	pipe := j.model.Pipeline()
	var res JobResult
	err := p.call(func() (err error) {
		res.Scores, err = pipe.Score(j.ds)
		if err != nil || j.explain == 0 {
			return err
		}
		res.Explanations = make([][]core.Explanation, j.ds.Len())
		for i, s := range j.ds.Samples {
			if res.Explanations[i], err = pipe.Explain(s, j.explain); err != nil {
				return fmt.Errorf("serve: explain sample %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		res = JobResult{Err: err}
	}
	p.deliver(j, res)
}

// deliver hands a result to the job's waiter, counting completed work
// whose waiter has already abandoned it: as wasted when the job finished
// at or after its deadline — the signal the SLO harness gates to zero —
// and as cancelled when the caller gave up before that deadline.
func (p *Pool) deliver(j *Job, res JobResult) {
	if res.Err == nil && j.ctx.Err() != nil {
		if deadline, ok := j.ctx.Deadline(); ok && !time.Now().Before(deadline) {
			p.wasted.Add(1)
		} else {
			p.cancelled.Add(1)
		}
	}
	j.done <- res
}

// call runs fn, converting a panic into a *PanicError so one poisoned
// job cannot unwind the worker goroutine. Every recovered panic counts
// toward mfod_panics_total.
func (p *Pool) call(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
