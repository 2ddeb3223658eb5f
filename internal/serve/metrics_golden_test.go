package serve

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fda"
)

// familyBlocks splits an exposition page into family blocks keyed by
// family name: each block runs from a "# HELP" line up to the next one.
// Comparing blocks, not pages, lets the family order change while every
// family's bytes stay pinned.
func familyBlocks(t *testing.T, page string) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(page, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name = strings.Fields(line)[2]
			if _, dup := blocks[name]; dup {
				t.Fatalf("family %s appears twice", name)
			}
		}
		if name == "" {
			t.Fatalf("series before the first # HELP: %q", line)
		}
		blocks[name] += line
	}
	return blocks
}

// compareGoldenPage checks page against the golden file family by
// family.
func compareGoldenPage(t *testing.T, page, golden string) {
	t.Helper()
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, got := familyBlocks(t, string(raw)), familyBlocks(t, page)
	names := map[string]bool{}
	for n := range want {
		names[n] = true
	}
	for n := range got {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if want[n] != got[n] {
			t.Errorf("family %s:\n got: %q\nwant: %q", n, got[n], want[n])
		}
	}
}

// heldPool returns a one-worker pool on m whose worker holds one job
// while queued more wait behind it, so the queue-depth gauge reads
// queued. Every job's caller has gone by the time the worker is let go,
// so none is scored.
func heldPool(t *testing.T, m *Metrics, queued int) *Pool {
	t.Helper()
	p := NewPool(PoolOptions{Workers: 1, QueueCap: queued, Metrics: m})
	ctx, cancel := context.WithCancel(context.Background())
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p.testHook = func(*Job) { once.Do(func() { close(held); <-release }) }
	t.Cleanup(func() {
		cancel()
		close(release)
		p.Close()
	})
	for i := 0; i <= queued; i++ {
		if _, err := p.Enqueue(ctx, nil, fda.Dataset{}, 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-held
		}
	}
	return p
}

// TestMetricsGoldenPage pins every family the replica exports, byte for
// byte: each family gets at least one series, every scrape-time family
// reads its owner (the pool's queue and counts, the limiter, the loaded
// models' basis caches, the stream readers), and the large values pin
// integer rendering of counters next to the %g forms of histogram
// bounds and sums.
func TestMetricsGoldenPage(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("ecg", 200, 0.0034)
	m.ObserveRequest("ecg", 200, 0.7)
	m.ObserveRequest("(stream)", 200, 0.02)
	m.ObserveRequest("ecg", 429, 0.0002)
	m.ObserveRequest("ecg", 504, math.NaN())
	m.ObserveRequest("taxonomy", 404, -1)
	m.reqBytes.Observe(2_000_000, "json")
	m.reqBytes.Observe(300, "wire")
	m.reqBytes.Observe(70_000, "wire")
	m.reloads.Inc("ecg")
	m.reloads.Inc("ecg")
	m.reloads.Inc("taxonomy")
	m.inflight.Add(1)
	m.inflight.Add(1)
	m.inflight.Add(-1)
	m.shed.Inc()
	m.shed.Inc()
	p := heldPool(t, m, 7)
	p.panics.Add(1)
	p.evicted.Add(1)
	p.wasted.Add(3)
	p.cancelled.Add(2)
	// Two models, each scored twice on its training grid: each cache
	// admits that grid's one basis size on the second fit, and the
	// gauge sums both.
	reg := NewRegistry()
	for i, name := range []string{"ecg", "taxonomy"} {
		path, _, d := saveModel(t, t.TempDir(), name+".json", int64(i+1))
		if err := reg.Load(name, path); err != nil {
			t.Fatal(err)
		}
		model, _ := reg.Get(name)
		for range 2 {
			if _, err := model.Pipeline().ScoreOne(d.Samples[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := NewServer(Config{Registry: reg, Pool: p, Metrics: m, Limiter: NewAIMD(AIMDOptions{Max: 24})}); err != nil {
		t.Fatal(err)
	}
	m.registerStreams(
		func() int { return 5 },
		func() uint64 { return 2_000_000 },
		func() uint64 { return 4 },
		func() uint64 { return 1_048_576 },
	)
	var sb strings.Builder
	m.reg.WritePrometheus(&sb)
	compareGoldenPage(t, sb.String(), filepath.Join("testdata", "metrics_golden.prom"))
}
