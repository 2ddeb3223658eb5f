package serve

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// ErrUnknownModel is returned when a request names a model the registry
// does not hold.
var ErrUnknownModel = errors.New("serve: unknown model")

// FaultReload is the fault-injection point hit on every model (re)load,
// before the file is opened. Chaos tests arm it to prove that a failed
// reload leaves the previous snapshot serving.
const FaultReload = "serve.registry.reload"

// Model is one named entry of the registry: a fitted pipeline loaded from
// a persisted-pipeline JSON file. The pipeline pointer is swapped
// atomically on reload, so in-flight scoring keeps the snapshot it
// started with while new requests pick up the fresh weights — no lock is
// held during scoring.
type Model struct {
	name string
	path string

	pipe     atomic.Pointer[core.Pipeline]
	mu       sync.Mutex // serializes reloads, not reads
	loadedAt atomic.Int64
}

// Name returns the registry name of the model.
func (m *Model) Name() string { return m.name }

// Path returns the file the model was loaded from.
func (m *Model) Path() string { return m.path }

// Pipeline returns the current fitted pipeline snapshot. Callers score
// with the returned pointer; a concurrent reload does not affect it.
func (m *Model) Pipeline() *core.Pipeline { return m.pipe.Load() }

// LoadedAt returns when the current snapshot was read from disk.
func (m *Model) LoadedAt() time.Time { return time.Unix(0, m.loadedAt.Load()) }

// reload re-reads the model file and swaps the snapshot in atomically.
// On any error the previous snapshot keeps serving.
func (m *Model) reload() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := faultinject.Hit(FaultReload); err != nil {
		return fmt.Errorf("serve: reload %s: %w", m.name, err)
	}
	f, err := os.Open(m.path)
	if err != nil {
		return fmt.Errorf("serve: reload %s: %w", m.name, err)
	}
	defer f.Close()
	p, err := core.LoadPipelineJSON(f)
	if err != nil {
		return fmt.Errorf("serve: reload %s: %w", m.name, err)
	}
	// Request concurrency already comes from the serving pool; letting
	// every request fan its samples out over GOMAXPROCS workers on top of
	// that would just oversubscribe the CPUs, so pin the per-pipeline pool
	// to sequential. Scores are bitwise identical for every setting.
	p.Parallel = 1
	m.pipe.Store(p)
	m.loadedAt.Store(time.Now().UnixNano())
	return nil
}

// Registry maps model names to loaded pipelines. Lookups take a read
// lock only to resolve the name; scoring runs entirely on the atomic
// snapshot held by the Model.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Model)}
}

// Load reads a persisted pipeline from path and registers it under name.
// Loading an existing name replaces its entry (and forgets the old path).
func (r *Registry) Load(name, path string) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name: %w", ErrUnknownModel)
	}
	m := &Model{name: name, path: path}
	if err := m.reload(); err != nil {
		return err
	}
	r.mu.Lock()
	r.models[name] = m
	r.mu.Unlock()
	return nil
}

// Get resolves a model by name.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	return m, ok
}

// Reload re-reads the named model from its original path, swapping the
// served pipeline atomically. The old snapshot keeps serving when the
// file has gone bad.
func (r *Registry) Reload(name string) error {
	m, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("serve: reload %q: %w", name, ErrUnknownModel)
	}
	return m.reload()
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// cacheEntries sums the resident basis-cache entries of every model's
// current snapshot. A reload starts its snapshot with an empty cache,
// so the sum falls then.
func (r *Registry) cacheEntries() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, m := range r.models {
		n += m.Pipeline().CacheStats().Entries
	}
	return n
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
