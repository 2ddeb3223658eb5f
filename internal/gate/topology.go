package gate

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// ErrTopology reports a rejected topology document.
var ErrTopology = errors.New("gate: invalid topology")

// FaultTopologyReload is the fault-injection point hit on every
// topology (re)load, before the file is opened. Chaos tests arm it to
// prove a failed reload keeps the previous fleet serving.
const FaultTopologyReload = "gate.topology.reload"

// Replica is one mfodserve backend in the topology file.
type Replica struct {
	// Name is the stable identity hashed onto the ring. Renaming a
	// replica moves its shard arcs; changing only its URL does not.
	Name string `json:"name"`
	// URL is the replica's base URL, e.g. "http://10.0.0.3:8080".
	URL string `json:"url"`
}

// Topology is the JSON document the gate watches:
//
//	{
//	  "vnodes": 128,
//	  "replicas": [
//	    {"name": "r1", "url": "http://127.0.0.1:8081"},
//	    {"name": "r2", "url": "http://127.0.0.1:8082"}
//	  ]
//	}
//
// vnodes is optional (DefaultVNodes). Names must be unique and URLs
// must parse with an http or https scheme.
type Topology struct {
	VNodes   int       `json:"vnodes,omitempty"`
	Replicas []Replica `json:"replicas"`
}

// ParseTopology reads and validates one topology document.
func ParseTopology(r io.Reader) (*Topology, error) {
	var t Topology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("gate: decode topology: %v: %w", err, ErrTopology)
	}
	if len(t.Replicas) == 0 {
		return nil, fmt.Errorf("gate: topology has no replicas: %w", ErrTopology)
	}
	seen := make(map[string]bool, len(t.Replicas))
	for i, rep := range t.Replicas {
		if rep.Name == "" {
			return nil, fmt.Errorf("gate: replica %d has no name: %w", i, ErrTopology)
		}
		if seen[rep.Name] {
			return nil, fmt.Errorf("gate: duplicate replica name %q: %w", rep.Name, ErrTopology)
		}
		seen[rep.Name] = true
		u, err := url.Parse(rep.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("gate: replica %q has unusable url %q: %w", rep.Name, rep.URL, ErrTopology)
		}
	}
	return &t, nil
}

// fleet is one immutable topology snapshot with its derived routing
// state: the ring and the name→URL map.
type fleet struct {
	topo     *Topology
	ring     *Ring
	urls     map[string]string
	loadedAt time.Time
}

func newFleet(t *Topology, at time.Time) *fleet {
	names := make([]string, len(t.Replicas))
	urls := make(map[string]string, len(t.Replicas))
	for i, rep := range t.Replicas {
		names[i] = rep.Name
		urls[rep.Name] = strings.TrimSuffix(rep.URL, "/")
	}
	return &fleet{topo: t, ring: NewRing(names, t.VNodes), urls: urls, loadedAt: at}
}

// Table holds the gate's current fleet snapshot, swapped atomically on
// topology reload exactly like the PR 1 model registry: lookups are one
// atomic load, a failed reload keeps the previous snapshot serving, and
// in-flight requests finish on the snapshot they started with.
type Table struct {
	path    string
	current atomic.Pointer[fleet]

	mu sync.Mutex // serializes reloads, not reads
	// watch bookkeeping under mu: the stat signature of the last load,
	// so the poller reloads only when the file visibly changed.
	lastMod  time.Time
	lastSize int64
}

// LoadTable reads the topology file at path and returns a table
// serving it.
func LoadTable(path string) (*Table, error) {
	t := &Table{path: path}
	if err := t.Reload(); err != nil {
		return nil, err
	}
	return t, nil
}

// Reload re-reads the topology file and swaps the fleet snapshot in
// atomically. On any error the previous snapshot keeps serving.
func (t *Table) Reload() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := faultinject.Hit(FaultTopologyReload); err != nil {
		return fmt.Errorf("gate: reload %s: %w", t.path, err)
	}
	f, err := os.Open(t.path)
	if err != nil {
		return fmt.Errorf("gate: reload %s: %w", t.path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("gate: reload %s: %w", t.path, err)
	}
	topo, err := ParseTopology(f)
	if err != nil {
		return fmt.Errorf("gate: reload %s: %w", t.path, err)
	}
	t.current.Store(newFleet(topo, time.Now()))
	t.lastMod, t.lastSize = st.ModTime(), st.Size()
	return nil
}

// Fleet returns the current snapshot. Callers route with the returned
// pointer; a concurrent reload does not affect it.
func (t *Table) Fleet() *fleet { return t.current.Load() }

// Path returns the watched topology file.
func (t *Table) Path() string { return t.path }

// Replicas returns the replica names of the current fleet, sorted —
// the exported view tests and operational tooling need without reaching
// into the snapshot.
func (t *Table) Replicas() []string { return t.current.Load().ring.Names() }

// changed stats the file and reports whether it differs from the last
// loaded signature. Stat errors read as "changed" so a recreated file
// is picked up on the next tick.
func (t *Table) changed() bool {
	st, err := os.Stat(t.path)
	if err != nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !st.ModTime().Equal(t.lastMod) || st.Size() != t.lastSize
}

// Watch polls the topology file every interval and hot-reloads it on
// change until stop is closed. Every hot reload's outcome is reported to
// onReload — may be nil — with a nil error on success. On a failure
// (mid-write truncation, validation errors) the previous fleet keeps
// serving and the next tick retries. Watch only touches Table fields
// behind the atomic snapshot, so it is safe next to concurrent routing.
func (t *Table) Watch(interval time.Duration, stop <-chan struct{}, onReload func(error)) {
	if interval <= 0 {
		interval = time.Second
	}
	//mfodlint:allow poolmisuse topology file watcher: a single long-lived poller goroutine per gate process, stopped via the stop channel on shutdown; it serializes all reloads itself so there is no concurrent mutation to order
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if !t.changed() {
					continue
				}
				if err := t.Reload(); onReload != nil {
					onReload(err)
				}
			}
		}
	}()
}
