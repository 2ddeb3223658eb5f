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

// FaultBatch is the fault-injection point hit at the start of every
// drained batch. Arming it with a delay holds a worker past request
// deadlines (504s); arming it with an error fails the whole batch.
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
	// MaxBatch caps how many queued jobs one worker wake-up drains and
	// scores together; 0 means 16. Jobs for the same model in a drained
	// batch share a single Pipeline.Score call.
	MaxBatch int
	// Metrics receives batch-size and queue-depth observations; may be
	// nil.
	Metrics *Metrics
}

// Pool is a bounded worker pool that micro-batches scoring jobs. Workers
// drain bursts of queued jobs, group them by model and score each group
// with one batched pipeline call, so concurrent requests amortize the
// per-call overhead while the bounded queue keeps overload failures fast
// and explicit.
type Pool struct {
	queue    chan *Job
	maxBatch int
	metrics  *Metrics

	mu     sync.RWMutex // guards closed vs. sends on queue
	closed bool
	wg     sync.WaitGroup

	// Deadline accounting: evicted counts jobs whose context was already
	// dead when a worker picked them up (no scoring spent); wasted counts
	// jobs scored to completion at or after their own deadline — the
	// signal the SLO harness gates on; cancelled counts jobs scored for a
	// caller that cancelled before that deadline (a hedge loser, a
	// disconnect).
	evicted   atomic.Uint64
	wasted    atomic.Uint64
	cancelled atomic.Uint64

	// Drain-rate EWMA (jobs/second across all workers), feeding the
	// Retry-After computation for 429 responses.
	rateMu   sync.Mutex
	rateEWMA float64
	rateLast time.Time

	// testHook, when set (tests only), runs at the start of every batch
	// before any scoring; it lets tests hold a worker to fill the queue.
	testHook func(batch []*Job)
}

// NewPool starts the workers and returns the pool. Call Close to drain.
func NewPool(opt PoolOptions) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 64
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 16
	}
	p := &Pool{
		queue:    make(chan *Job, opt.QueueCap),
		maxBatch: opt.MaxBatch,
		metrics:  opt.Metrics,
	}
	if p.metrics != nil {
		p.metrics.RegisterQueueDepth(p.QueueDepth)
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

// observeDrain feeds one finished batch of n jobs into the drain-rate
// EWMA. Consecutive batch completions across all workers approximate
// aggregate throughput; smoothing (α=0.2) keeps one giant or empty
// batch from whipsawing the advertised Retry-After.
func (p *Pool) observeDrain(n int) {
	now := time.Now()
	p.rateMu.Lock()
	if !p.rateLast.IsZero() {
		if dt := now.Sub(p.rateLast).Seconds(); dt > 0 {
			inst := float64(n) / dt
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
		p.metrics.IncEvicted()
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

// worker drains bursts of jobs and scores them grouped by model.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		batch := []*Job{j}
		for len(batch) < p.maxBatch {
			select {
			case extra, ok := <-p.queue:
				if !ok {
					p.runBatch(batch)
					return
				}
				batch = append(batch, extra)
			default:
				goto drained
			}
		}
	drained:
		p.runBatch(batch)
	}
}

// runBatch groups a drained batch by model and scores each group with a
// single batched call against that model's current pipeline snapshot.
func (p *Pool) runBatch(batch []*Job) {
	if p.testHook != nil {
		p.testHook(batch)
	}
	p.metrics.ObserveBatch(len(batch))
	defer p.observeDrain(len(batch))
	if err := faultinject.Hit(FaultBatch); err != nil {
		for _, j := range batch {
			j.done <- JobResult{Err: err}
		}
		return
	}
	// Group by model preserving arrival order within each group.
	order := make([]*Model, 0, len(batch))
	groups := make(map[*Model][]*Job, len(batch))
	for _, j := range batch {
		if j.ctx.Err() != nil {
			// The waiter is gone (deadline or disconnect): don't burn
			// smoothing time on an answer nobody reads.
			p.evict(j)
			continue
		}
		if _, ok := groups[j.model]; !ok {
			order = append(order, j.model)
		}
		groups[j.model] = append(groups[j.model], j)
	}
	for _, m := range order {
		p.runGroup(m.Pipeline(), groups[m])
	}
}

// evict delivers a dead job's context error without scoring it. The
// batch slot it would have burned goes to a job somebody still waits
// for.
func (p *Pool) evict(j *Job) {
	p.evicted.Add(1)
	p.metrics.IncEvicted()
	j.done <- JobResult{Err: j.ctx.Err()}
}

// deliver hands a result to the job's waiter, counting completed work
// whose waiter has already abandoned it: as wasted when the job finished
// at or after its deadline — the signal the SLO harness gates to zero —
// and as cancelled when the caller gave up before that deadline.
func (p *Pool) deliver(j *Job, res JobResult) {
	if res.Err == nil && j.ctx.Err() != nil {
		if deadline, ok := j.ctx.Deadline(); ok && !time.Now().Before(deadline) {
			p.wasted.Add(1)
			p.metrics.IncWasted()
		} else {
			p.cancelled.Add(1)
			p.metrics.IncCancelled()
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
			p.metrics.IncPanics()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// runGroup scores all jobs of one model together. On a batched failure —
// a malformed request, or a panic recovered from the scoring call — it
// quarantines the batch and falls back to per-job scoring so one
// poisoned curve cannot take down its batch neighbours.
func (p *Pool) runGroup(pipe *core.Pipeline, jobs []*Job) {
	// Re-check deadlines at group start: in a large batch, earlier groups
	// may have taken long enough that later jobs are already dead, and a
	// batch slot spent on them is a slot stolen from live requests.
	live := jobs[:0]
	for _, j := range jobs {
		if j.ctx.Err() != nil {
			p.evict(j)
			continue
		}
		live = append(live, j)
	}
	jobs = live
	if len(jobs) == 0 {
		return
	}
	if len(jobs) == 1 && jobs[0].ds.Len() == 1 && jobs[0].explain == 0 {
		// Single curve, no explanations: the allocation-light fast path.
		var s float64
		err := p.call(func() (e error) {
			s, e = pipe.ScoreOne(jobs[0].ds.Samples[0])
			return
		})
		if err != nil {
			p.deliver(jobs[0], JobResult{Err: err})
			return
		}
		p.deliver(jobs[0], JobResult{Scores: []float64{s}})
		return
	}
	merged := fda.Dataset{}
	for _, j := range jobs {
		merged.Samples = append(merged.Samples, j.ds.Samples...)
	}
	var scores []float64
	err := p.call(func() (e error) {
		scores, e = pipe.Score(merged)
		return
	})
	if err != nil {
		if len(jobs) == 1 {
			p.deliver(jobs[0], JobResult{Err: err})
			return
		}
		for _, j := range jobs {
			p.runGroup(pipe, []*Job{j})
		}
		return
	}
	off := 0
	for _, j := range jobs {
		n := j.ds.Len()
		res := JobResult{Scores: scores[off : off+n : off+n]}
		off += n
		if j.explain > 0 {
			res.Explanations = make([][]core.Explanation, n)
			expErr := p.call(func() error {
				for i := 0; i < n; i++ {
					exp, err := pipe.Explain(j.ds, i, j.explain)
					if err != nil {
						return fmt.Errorf("serve: explain sample %d: %w", i, err)
					}
					res.Explanations[i] = exp
				}
				return nil
			})
			if expErr != nil {
				res = JobResult{Err: expErr}
			}
		}
		p.deliver(j, res)
	}
}
