// Package stream is the append-only ingestion tier: per-stream state
// machines that accept (t, value-vector) observations one at a time,
// hold them in an fda.Incremental, and emit early-warning partial-curve
// scores over the observed sub-domain. Each score refits the held
// points through the batch smoother's own systems, so the score window
// widens as data lands, and once a stream covers the training grid its
// score is bitwise the batch score (see core.Pipeline.ScorePartialFit
// and the equivalence contract on fda.Incremental).
//
// A Manager owns the stream table: streams are created implicitly by
// the first append naming a model, evicted when idle past the TTL
// (curves that stopped transmitting must not pin memory forever), and
// capped in number. Scoring is cached per (stream, sequence): repeated
// reads between appends cost one mutex acquisition, not a refit.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fda"
	"repro/internal/wire"
)

// Model is the scoring surface a stream needs from a fitted pipeline;
// *core.Pipeline satisfies it.
type Model interface {
	NewIncremental(dim int) (*fda.Incremental, error)
	ScorePartialFit(fit *fda.Fit, lo, hi float64) (score float64, gridFrom, gridTo int, err error)
	Grid() []float64
}

// MaxPoints bounds the points one curve may carry: the distinct times a
// stream holds, and (as serve.DefaultMaxPoints) the points of one curve
// a replica scores. The default basis ladder sizes a fit at 8–25% of
// its points. The design is span-compact and the Gram, the penalty and
// the factorizations are kept as bands, so most of a fit grows linearly
// with its points; what still grows with their square is the penalty's
// construction: bspline.PenaltyMatrix builds the dense L×L matrix R,
// evaluating every basis function at every quadrature node, once per
// basis size and domain (the cache keeps only its band afterwards).
// Scoring one bivariate curve with the Fig. 3 model through a cold
// cache on a 2-vCPU host takes about 7–13 ms and allocates 5.5 MB at
// 2,048 points, and 130–210 ms and 68 MB at 8,192.
const MaxPoints = 2048

// Sentinel errors of the streaming tier; the HTTP layer maps them onto
// the v1 envelope.
var (
	ErrUnknownModel   = errors.New("stream: unknown model")
	ErrUnknownStream  = errors.New("stream: unknown stream")
	ErrTooManyStreams = errors.New("stream: stream table full")
	ErrModelMismatch  = errors.New("stream: stream bound to a different model")
	ErrClosed         = errors.New("stream: manager closed")
	ErrNotReady       = errors.New("stream: not enough observations to fit")
)

// Point is one observation: the p-vector V observed at time T, as a
// stream append body carries it (wire.DecodeAppend).
type Point = wire.Point

// AppendResult acknowledges an append: the stream's total accepted
// observation count (Seq, monotone across the stream's lifetime, never
// reduced by window trims), the distinct times currently held, and the
// observed sub-domain.
type AppendResult struct {
	Stream string      `json:"stream"`
	Model  string      `json:"model"`
	Seq    uint64      `json:"seq"`
	Points int         `json:"points"`
	From   float64     `json:"from"`
	To     float64     `json:"to"`
	Score  *ScoreEvent `json:"score,omitempty"`
}

// ScoreEvent is one early-warning score snapshot: the partial-curve
// outlyingness over the observed sub-domain [From, To], which covers
// Coverage of the model grid. Seq names the append state the event was
// computed from, so clients can correlate scores with their writes;
// StalenessMs is how far the event lagged the newest observation when
// it was computed (0 when computed on demand right after an append).
type ScoreEvent struct {
	Stream      string  `json:"stream"`
	Model       string  `json:"model"`
	Seq         uint64  `json:"seq"`
	Points      int     `json:"points"`
	From        float64 `json:"from"`
	To          float64 `json:"to"`
	GridFrom    int     `json:"gridFrom"`
	GridTo      int     `json:"gridTo"`
	Coverage    float64 `json:"coverage"`
	Score       float64 `json:"score"`
	StalenessMs int64   `json:"stalenessMs"`
	// Final marks the terminal event of a watch: the stream was deleted
	// or evicted and no further events will follow.
	Final bool `json:"final,omitempty"`
}

// Stream is one append-only curve. All state is guarded by mu; the
// refit runs under it too, so appends observed by a score are complete
// by construction (the documented cost: a slow refit blocks that
// stream's appends, never other streams).
type Stream struct {
	id        string
	modelName string
	model     Model
	gridLen   int

	mu        sync.Mutex
	inc       *fda.Incremental
	seq       uint64 // total accepted observations, monotone
	lastApp   time.Time
	lastTouch time.Time
	closed    bool
	updated   chan struct{} // closed+replaced on every append; closed for good on delete
	snap      *ScoreEvent   // score cache, valid while snapSeq == seq
	snapSeq   uint64
}

// Options configures a Manager.
type Options struct {
	// Resolve maps a model name to its fitted pipeline; required.
	// Called once per stream creation, so hot-reloaded registries pin a
	// stream to the snapshot its first append saw.
	Resolve func(name string) (Model, bool)
	// MaxStreams caps the table; 0 means 1024. Full => ErrTooManyStreams.
	MaxStreams int
	// Window is the sliding-window size in observations (drifting
	// baselines); 0 keeps every observation. The next fit is the batch
	// fit of the points the window keeps.
	Window int
	// MaxAppend caps points per append request; 0 means 1024.
	MaxAppend int
	// IdleTTL evicts streams untouched for this long; 0 means 5m.
	IdleTTL time.Duration
	// OnEvict, when set, observes evictions (tests, logging).
	OnEvict func(id string)
}

func (o Options) maxStreams() int {
	if o.MaxStreams <= 0 {
		return 1024
	}
	return o.MaxStreams
}

func (o Options) maxAppend() int {
	if o.MaxAppend <= 0 {
		return 1024
	}
	return o.MaxAppend
}

func (o Options) idleTTL() time.Duration {
	if o.IdleTTL <= 0 {
		return 5 * time.Minute
	}
	return o.IdleTTL
}

// Manager owns the stream table and the idle-eviction janitor.
type Manager struct {
	opt Options

	mu      sync.Mutex
	streams map[string]*Stream
	closed  bool
	stop    chan struct{}
	done    chan struct{}

	appends atomic.Uint64
	evicted atomic.Uint64
	fits    atomic.Uint64
}

// NewManager starts a manager and its eviction janitor.
func NewManager(opt Options) (*Manager, error) {
	if opt.Resolve == nil {
		return nil, errors.New("stream: Options.Resolve is required")
	}
	m := &Manager{
		opt:     opt,
		streams: make(map[string]*Stream),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	//mfodlint:allow poolmisuse lifecycle goroutine, not numeric fan-out: the idle-stream janitor ticks until Close and is joined via the done channel
	go m.janitor()
	return m, nil
}

// Close stops the janitor and closes every stream; in-flight watches
// observe a terminal event.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stop)
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = map[string]*Stream{}
	m.mu.Unlock()
	for _, s := range streams {
		s.close()
	}
	<-m.done
}

// Active returns the number of live streams (the mfod_streams_active
// gauge).
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// AppendsTotal returns the total observations accepted across all
// streams since start.
func (m *Manager) AppendsTotal() uint64 { return m.appends.Load() }

// EvictedTotal returns how many idle streams the janitor reclaimed.
func (m *Manager) EvictedTotal() uint64 { return m.evicted.Load() }

// FitsTotal returns how many incremental refits scoring performed.
func (m *Manager) FitsTotal() uint64 { return m.fits.Load() }

// IDs returns the live stream ids, for the list endpoint.
func (m *Manager) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.streams))
	for id := range m.streams {
		out = append(out, id)
	}
	return out
}

// Get returns a live stream by id.
func (m *Manager) Get(id string) (*Stream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.streams[id]
	return s, ok
}

// Delete closes and removes a stream; watchers observe a terminal
// event. It reports whether the id was live.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	s, ok := m.streams[id]
	if ok {
		delete(m.streams, id)
	}
	m.mu.Unlock()
	if ok {
		s.close()
	}
	return ok
}

// Append routes points to the stream, creating it on first use: the
// first append fixes the stream's model binding and parameter count.
// Validation happens entirely inside the stream under its own mutex, so
// a rejected batch leaves the stream exactly as it was.
func (m *Manager) Append(id, modelName string, pts []Point, withScore bool) (AppendResult, error) {
	if len(pts) == 0 {
		return AppendResult{}, fmt.Errorf("stream: empty append: %w", fda.ErrData)
	}
	if len(pts) > m.opt.maxAppend() {
		return AppendResult{}, fmt.Errorf("stream: %d points exceed the %d per-append cap: %w",
			len(pts), m.opt.maxAppend(), fda.ErrData)
	}
	s, err := m.lookupOrCreate(id, modelName, len(pts[0].V))
	if err != nil {
		return AppendResult{}, err
	}
	res, err := s.append(pts, withScore, m)
	if err != nil {
		return AppendResult{}, err
	}
	m.appends.Add(uint64(len(pts)))
	return res, nil
}

func (m *Manager) lookupOrCreate(id, modelName string, dim int) (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if s, ok := m.streams[id]; ok {
		if modelName != "" && modelName != s.modelName {
			return nil, fmt.Errorf("%w: stream %q is bound to %q, append names %q",
				ErrModelMismatch, id, s.modelName, modelName)
		}
		return s, nil
	}
	if modelName == "" {
		return nil, fmt.Errorf("%w: first append to %q must name a model", ErrUnknownModel, id)
	}
	if len(m.streams) >= m.opt.maxStreams() {
		return nil, ErrTooManyStreams
	}
	model, ok := m.opt.Resolve(modelName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	inc, err := model.NewIncremental(dim)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s := &Stream{
		id:        id,
		modelName: modelName,
		model:     model,
		gridLen:   len(model.Grid()),
		inc:       inc,
		lastApp:   now,
		lastTouch: now,
		updated:   make(chan struct{}),
	}
	m.streams[id] = s
	return s, nil
}

// Score returns the current early-warning event for a live stream,
// refitting only when appends landed since the cached event.
func (m *Manager) Score(id string) (ScoreEvent, error) {
	s, ok := m.Get(id)
	if !ok {
		return ScoreEvent{}, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return s.Latest(m)
}

// janitor evicts streams idle past the TTL. The scan interval is a
// quarter of the TTL so eviction lags idleness by at most ~1.25 TTL.
func (m *Manager) janitor() {
	defer close(m.done)
	interval := m.opt.idleTTL() / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-m.opt.idleTTL())
		m.mu.Lock()
		var evict []*Stream
		for id, s := range m.streams {
			if s.idleSince().Before(cutoff) {
				evict = append(evict, s)
				delete(m.streams, id)
			}
		}
		m.mu.Unlock()
		for _, s := range evict {
			s.close()
			m.evicted.Add(1)
			if m.opt.OnEvict != nil {
				m.opt.OnEvict(s.id)
			}
		}
	}
}

// ModelName returns the model the stream is bound to.
func (s *Stream) ModelName() string { return s.modelName }

func (s *Stream) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTouch
}

// Status reports the stream without refitting.
func (s *Stream) Status() AppendResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := AppendResult{Stream: s.id, Model: s.modelName, Seq: s.seq, Points: s.inc.Len()}
	res.From, res.To, _ = s.inc.Span()
	return res
}

func (s *Stream) append(pts []Point, withScore bool, m *Manager) (AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return AppendResult{}, fmt.Errorf("%w: %q", ErrUnknownStream, s.id)
	}
	// Bound the points the stream could hold after this batch. A
	// re-observed time counts as new, so the check needs no state change.
	held := s.inc.Len() + len(pts)
	if w := m.opt.Window; w > 0 && held > w {
		held = w
	}
	if held > MaxPoints {
		return AppendResult{}, fmt.Errorf("stream: %q would hold up to %d points, limit %d: %w",
			s.id, held, MaxPoints, fda.ErrData)
	}
	// Validate the whole batch before touching state: an append is
	// all-or-nothing, so a poisoned point can never leave a half-applied
	// batch behind.
	for i, pt := range pts {
		if err := s.inc.CheckAppend(pt.T, pt.V); err != nil {
			return AppendResult{}, fmt.Errorf("stream: point %d: %w", i, err)
		}
	}
	for i, pt := range pts {
		if err := s.inc.Append(pt.T, pt.V); err != nil {
			// Unreachable after CheckAppend; surface it loudly if the
			// invariant ever breaks rather than corrupting silently.
			return AppendResult{}, fmt.Errorf("stream: point %d rejected after validation: %w", i, err)
		}
	}
	if w := m.opt.Window; w > 0 {
		s.inc.TrimOldest(w)
	}
	s.seq += uint64(len(pts))
	now := time.Now()
	s.lastApp, s.lastTouch = now, now
	// Wake watchers: close-and-replace broadcast.
	close(s.updated)
	s.updated = make(chan struct{})
	res := AppendResult{Stream: s.id, Model: s.modelName, Seq: s.seq, Points: s.inc.Len()}
	res.From, res.To, _ = s.inc.Span()
	if withScore {
		ev, err := s.scoreLocked(m)
		if err == nil {
			res.Score = &ev
		} else if !errors.Is(err, ErrNotReady) {
			return AppendResult{}, err
		}
	}
	return res, nil
}

// Latest computes (or returns the cached) early-warning event. It is
// deliberately not named Score*: it refreshes the idle clock and the
// snapshot cache, so it mutates the stream — unlike pipeline scoring,
// which is read-only after Fit.
func (s *Stream) Latest(m *Manager) (ScoreEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ScoreEvent{}, fmt.Errorf("%w: %q", ErrUnknownStream, s.id)
	}
	s.lastTouch = time.Now()
	return s.scoreLocked(m)
}

func (s *Stream) scoreLocked(m *Manager) (ScoreEvent, error) {
	if s.snap != nil && s.snapSeq == s.seq {
		return *s.snap, nil
	}
	if s.inc.Len() < 2 {
		return ScoreEvent{}, fmt.Errorf("%w: stream %q holds %d point(s), need 2", ErrNotReady, s.id, s.inc.Len())
	}
	fit, err := s.inc.Fit()
	if err != nil {
		return ScoreEvent{}, fmt.Errorf("stream: refit %q: %w", s.id, err)
	}
	if m != nil {
		m.fits.Add(1)
	}
	lo, hi, _ := s.inc.Span()
	score, gridFrom, gridTo, err := s.model.ScorePartialFit(fit, lo, hi)
	if err != nil {
		return ScoreEvent{}, fmt.Errorf("stream: score %q: %w", s.id, err)
	}
	ev := ScoreEvent{
		Stream:   s.id,
		Model:    s.modelName,
		Seq:      s.seq,
		Points:   s.inc.Len(),
		From:     lo,
		To:       hi,
		GridFrom: gridFrom,
		GridTo:   gridTo,
		Score:    score,
	}
	if gridTo >= gridFrom && s.gridLen > 0 {
		ev.Coverage = float64(gridTo-gridFrom+1) / float64(s.gridLen)
	}
	ev.StalenessMs = time.Since(s.lastApp).Milliseconds()
	s.snap = &ev
	s.snapSeq = s.seq
	return ev, nil
}

// Updated returns a channel closed on the next append (or on close);
// watchers grab it *before* reading a score so an append racing the
// read re-arms them immediately.
func (s *Stream) Updated() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updated
}

// Closed reports whether the stream was deleted or evicted.
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Stream) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.updated)
}
