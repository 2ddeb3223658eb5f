// Package jobs implements the async bulk-scoring subsystem behind
// POST /v1/jobs: a submitted curve set is split into fixed-size chunks
// of consecutive samples, each chunk is scored through a Runner (the
// serve pool on a replica; scatter/gather over the fleet on the gate)
// under a per-job token budget, and the per-sample scores land back at
// their absolute offsets so the merged result is in the exact sample
// order of the submission.
//
// Two properties carry the design:
//
//   - Bitwise fidelity. Chunks never change the numbers — the pipeline
//     scores each sample independently and bitwise-stably (the
//     batch-invariance guarantee internal/core pins with tests), so a
//     job's merged scores are identical to one synchronous Score over
//     the whole set, regardless of chunking, interleaving or retries.
//
//   - Bounded appetite. A job holds at most Options.Tokens chunks in
//     flight, so a million-curve job trickles through the serving tier
//     instead of flooding it. On a replica, each chunk of its own jobs
//     enters the worker pool's bounded queue directly; a full queue is
//     transient and the chunk is retried with backoff. On the gate,
//     chunks are scattered to the replicas as /v1/score requests, so
//     they meet each replica's AIMD limiter and queue like interactive
//     traffic, and a shed chunk (429) is likewise retried.
//
// Results stream incrementally: scores[:frontier] — the contiguous
// prefix of finished chunks — is final the moment it exists, which is
// what makes the NDJSON results stream resumable by plain integer
// cursor with no risk of a hole or a duplicate.
//
// A Job never holds its samples. Only the job's supervisor goroutine
// holds the chunks, so once a job is done, failed or cancelled, the
// table keeps its scores and counts for the retention window and never
// its curves.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fda"
	"repro/internal/parallel"
)

// Chunk is one contiguous run of samples from a job's dataset. Start is
// the absolute index of the chunk's first sample in the submission
// order; Index is the chunk ordinal (Start / chunk size).
type Chunk struct {
	Index   int
	Start   int
	Dataset fda.Dataset
}

// Runner scores one chunk. Implementations must return exactly one
// score per sample, in sample order, and must be safe for concurrent
// calls. A plain error is transient (the manager retries with backoff);
// wrap with Fatal to fail the whole job immediately — e.g. an unknown
// model, or curves the model cannot score, where retrying cannot help.
type Runner interface {
	ScoreChunk(ctx context.Context, model string, c Chunk) ([]float64, error)
}

// fatalError marks a chunk failure as non-retryable.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Fatal wraps err so the manager fails the job instead of retrying the
// chunk. Fatal(nil) is nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// IsFatal reports whether err (or anything it wraps) came from Fatal.
func IsFatal(err error) bool {
	var f *fatalError
	return errors.As(err, &f)
}

// State is a job's lifecycle position. Transitions are strictly
// pending → running → one of the three terminal states.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrTooManyJobs is returned by Submit when the job table is full;
	// callers should surface it as overload (429).
	ErrTooManyJobs = errors.New("jobs: too many jobs")
	// ErrCancelled is returned by result waits on a cancelled job.
	ErrCancelled = errors.New("jobs: job cancelled")
)

// Options configures a Manager. Runner is required; every other field
// has a serviceable default.
type Options struct {
	Runner Runner
	// ChunkSize is the samples-per-chunk default for submissions that
	// do not pick their own; 0 means 64.
	ChunkSize int
	// Tokens bounds concurrently in-flight chunks per job; 0 means 2.
	// This is the starvation guard: interactive traffic shares the
	// scoring pool with at most this many bulk chunks at a time.
	Tokens int
	// MaxAttempts bounds tries per chunk (first try included); 0 means 5.
	MaxAttempts int
	// Backoff is the first retry delay, doubling per attempt; 0 means 50ms.
	Backoff time.Duration
	// ChunkTimeout bounds one chunk attempt; 0 means 30s.
	ChunkTimeout time.Duration
	// MaxJobs caps the job table (active and retained terminal jobs);
	// 0 means 64.
	MaxJobs int
}

// retain keeps terminal jobs queryable before pruning.
const retain = 10 * time.Minute

// Manager owns the job table and the per-job supervisors.
type Manager struct {
	opt Options

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64
	closed bool
	wg     sync.WaitGroup
}

// NewManager validates opt and returns a Manager.
func NewManager(opt Options) (*Manager, error) {
	if opt.Runner == nil {
		return nil, errors.New("jobs: Options needs a Runner")
	}
	if opt.ChunkSize <= 0 {
		opt.ChunkSize = 64
	}
	if opt.Tokens <= 0 {
		opt.Tokens = 2
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 5
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 50 * time.Millisecond
	}
	if opt.ChunkTimeout <= 0 {
		opt.ChunkTimeout = 30 * time.Second
	}
	if opt.MaxJobs <= 0 {
		opt.MaxJobs = 64
	}
	return &Manager{opt: opt, jobs: make(map[string]*Job)}, nil
}

// SplitChunks cuts ds into consecutive chunks of at most size samples.
// The chunk datasets alias ds's sample slices (no copying).
func SplitChunks(ds fda.Dataset, size int) []Chunk {
	n := len(ds.Samples)
	if size <= 0 {
		size = n
	}
	chunks := make([]Chunk, 0, (n+size-1)/max(size, 1))
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		chunks = append(chunks, Chunk{
			Index:   len(chunks),
			Start:   start,
			Dataset: fda.Dataset{Samples: ds.Samples[start:end]},
		})
	}
	return chunks
}

// Submit registers ds as a new job against model and starts scoring it.
// chunkSize 0 takes the manager default. The returned job is already
// running; poll Status or stream WaitResults.
func (m *Manager) Submit(model string, ds fda.Dataset, chunkSize int) (*Job, error) {
	if chunkSize <= 0 {
		chunkSize = m.opt.ChunkSize
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.pruneLocked()
	if len(m.jobs) >= m.opt.MaxJobs {
		// Retention is a courtesy, not a guarantee: a full table evicts
		// finished jobs oldest-first before it sheds new work. Only a
		// table full of LIVE jobs is real backpressure.
		m.evictTerminalLocked(len(m.jobs) - m.opt.MaxJobs + 1)
	}
	if len(m.jobs) >= m.opt.MaxJobs {
		m.mu.Unlock()
		return nil, ErrTooManyJobs
	}
	m.nextID++
	//mfodlint:allow ctxpropagate job lifetime exceeds the submitting request; each chunk is bounded by ChunkTimeout and the whole job by Cancel/eviction
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:        fmt.Sprintf("j%06d", m.nextID),
		model:     model,
		total:     len(ds.Samples),
		chunkSize: chunkSize,
		created:   time.Now(),
		state:     StatePending,
		changed:   make(chan struct{}),
		cancelFn:  cancel,
		ctx:       ctx,
	}
	chunks := SplitChunks(ds, chunkSize)
	j.scores = make([]float64, j.total)
	j.chunkDone = make([]bool, len(chunks))
	m.jobs[j.id] = j
	m.wg.Add(1)
	m.mu.Unlock()
	//mfodlint:allow poolmisuse one supervisor goroutine per job is the subsystem's purpose; the job table bounds them via Options.MaxJobs
	go j.run(m, chunks)
	return j, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// pruneLocked drops terminal jobs past the retention window. Called
// under m.mu on every Submit, so the table cannot grow without bound
// even with no reaper goroutine.
func (m *Manager) pruneLocked() {
	cutoff := time.Now().Add(-retain)
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
		}
	}
}

// evictTerminalLocked removes up to n terminal jobs oldest-finished
// first, regardless of the retention window. Called under m.mu when the
// table is full.
func (m *Manager) evictTerminalLocked(n int) {
	type cand struct {
		id       string
		finished time.Time
	}
	var cands []cand
	for id, j := range m.jobs {
		j.mu.Lock()
		if j.state.Terminal() {
			cands = append(cands, cand{id, j.finished})
		}
		j.mu.Unlock()
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].finished.Before(cands[b].finished) })
	for i := 0; i < len(cands) && i < n; i++ {
		delete(m.jobs, cands[i].id)
	}
}

// Close cancels every running job and waits for the supervisors to
// exit. Submit fails with ErrClosed afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	for _, j := range js {
		j.Cancel()
	}
	m.wg.Wait()
}

// Job is one bulk-scoring job. All mutable state sits behind mu; the
// changed channel is closed-and-replaced on every state or frontier
// advance so streaming waiters wake without polling.
type Job struct {
	id        string
	model     string
	total     int
	chunkSize int
	created   time.Time
	ctx       context.Context
	cancelFn  context.CancelFunc

	mu            sync.Mutex
	state         State
	scores        []float64
	chunkDone     []bool
	frontierChunk int
	frontier      int // scores[:frontier] are final
	doneChunks    int
	retries       int
	errMsg        string
	finished      time.Time
	changed       chan struct{}
}

// ID returns the job handle used in URLs.
func (j *Job) ID() string { return j.id }

// Status is the poll snapshot of GET /v1/jobs/{id}.
type Status struct {
	ID          string `json:"id"`
	Model       string `json:"model"`
	State       State  `json:"state"`
	Samples     int    `json:"samples"`
	ChunkSize   int    `json:"chunkSize"`
	TotalChunks int    `json:"totalChunks"`
	DoneChunks  int    `json:"doneChunks"`
	// Scored is the contiguous finished prefix — exactly the samples a
	// results stream from cursor 0 could read right now.
	Scored    int       `json:"scored"`
	Retries   int       `json:"retries"`
	CreatedAt time.Time `json:"createdAt"`
	Error     string    `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.id,
		Model:       j.model,
		State:       j.state,
		Samples:     j.total,
		ChunkSize:   j.chunkSize,
		TotalChunks: len(j.chunkDone),
		DoneChunks:  j.doneChunks,
		Scored:      j.frontier,
		Retries:     j.retries,
		CreatedAt:   j.created,
		Error:       j.errMsg,
	}
}

// Cancel asks the job to stop. Chunks already merged stay readable; the
// terminal state becomes cancelled once in-flight chunks unwind.
// Cancelling a terminal job is a no-op.
func (j *Job) Cancel() { j.cancelFn() }

// WaitResults blocks until scores beyond cursor are final, the job
// reaches a terminal state, or ctx expires. It returns the newly final
// scores (a copy), the next cursor, and final=true once the job is done
// and everything up to the returned cursor has been handed out. A
// failed or cancelled job yields an error once its finished prefix has
// been drained.
func (j *Job) WaitResults(ctx context.Context, cursor int) (vals []float64, next int, final bool, err error) {
	if cursor < 0 {
		cursor = 0
	}
	for {
		j.mu.Lock()
		if cursor > j.total {
			cursor = j.total
		}
		if j.frontier > cursor {
			vals = append([]float64(nil), j.scores[cursor:j.frontier]...)
			next = j.frontier
			final = j.state == StateDone && next == j.total
			j.mu.Unlock()
			return vals, next, final, nil
		}
		switch j.state {
		case StateDone:
			j.mu.Unlock()
			return nil, cursor, true, nil
		case StateFailed:
			msg := j.errMsg
			j.mu.Unlock()
			return nil, cursor, false, fmt.Errorf("jobs: job failed: %s", msg)
		case StateCancelled:
			j.mu.Unlock()
			return nil, cursor, false, ErrCancelled
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, cursor, false, ctx.Err()
		}
	}
}

// broadcastLocked wakes every waiter. Caller holds j.mu.
func (j *Job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// run is the job supervisor: it feeds chunks to workers under the token
// budget, waits for them to unwind, and settles the terminal state. The
// chunks are the job's only reference to its samples, and they die with
// the supervisor.
func (j *Job) run(m *Manager, chunks []Chunk) {
	defer m.wg.Done()
	j.mu.Lock()
	j.state = StateRunning
	j.broadcastLocked()
	j.mu.Unlock()

	// Options.Tokens workers claim chunks in index order; once the job
	// is cancelled, each remaining chunk's runChunk returns at once.
	parallel.For(len(chunks), m.opt.Tokens, func(_, i int) {
		j.runChunk(m, chunks[i])
	})

	j.mu.Lock()
	switch {
	case j.doneChunks == len(chunks):
		j.state = StateDone
	case j.errMsg != "":
		j.state = StateFailed
	default:
		j.state = StateCancelled
	}
	j.finished = time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
	j.cancelFn()
}

// runChunk scores one chunk with retries. Transient errors back off and
// retry up to MaxAttempts; a fatal error or exhausted attempts fails
// the whole job (and cancels its siblings).
func (j *Job) runChunk(m *Manager, c Chunk) {
	var lastErr error
	for attempt := 0; attempt < m.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			j.mu.Lock()
			j.retries++
			j.mu.Unlock()
			backoff := m.opt.Backoff << (attempt - 1)
			t := time.NewTimer(backoff)
			select {
			case <-j.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if j.ctx.Err() != nil {
			return
		}
		cctx, cancel := context.WithTimeout(j.ctx, m.opt.ChunkTimeout)
		scores, err := m.opt.Runner.ScoreChunk(cctx, j.model, c)
		cancel()
		if err == nil && len(scores) != len(c.Dataset.Samples) {
			err = Fatal(fmt.Errorf("runner returned %d scores for a %d-sample chunk", len(scores), len(c.Dataset.Samples)))
		}
		if err == nil {
			j.complete(c, scores)
			return
		}
		lastErr = err
		if IsFatal(err) || j.ctx.Err() != nil {
			break
		}
	}
	if j.ctx.Err() != nil && !IsFatal(lastErr) {
		// Cancellation unwinding, not a chunk failure.
		return
	}
	j.fail(c, lastErr)
}

// complete merges a finished chunk at its absolute offset and advances
// the contiguous frontier: every chunk but the last holds chunkSize
// samples, so frontierChunk chunks end at frontierChunk × chunkSize.
func (j *Job) complete(c Chunk, scores []float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.chunkDone[c.Index] {
		// A duplicate completion (e.g. a raced retry) must not double
		// count; the scores are bitwise-identical by contract anyway.
		return
	}
	copy(j.scores[c.Start:], scores)
	j.chunkDone[c.Index] = true
	j.doneChunks++
	for j.frontierChunk < len(j.chunkDone) && j.chunkDone[j.frontierChunk] {
		j.frontierChunk++
	}
	j.frontier = min(j.frontierChunk*j.chunkSize, j.total)
	j.broadcastLocked()
}

// fail records the first chunk failure and cancels the job's context so
// sibling workers stop early.
func (j *Job) fail(c Chunk, err error) {
	j.mu.Lock()
	if j.errMsg == "" {
		j.errMsg = fmt.Sprintf("chunk %d (samples %d..%d): %v",
			c.Index, c.Start, c.Start+len(c.Dataset.Samples)-1, err)
	}
	j.broadcastLocked()
	j.mu.Unlock()
	j.cancelFn()
}
