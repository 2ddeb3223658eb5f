package serve

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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

// TestMetricsGoldenPage pins every family the replica exports, byte for
// byte: each family gets at least one series, every scrape-time source
// is installed, and the large values pin integer rendering of counters
// next to the %g forms of histogram bounds and sums.
func TestMetricsGoldenPage(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("ecg", 200, 0.0034)
	m.ObserveRequest("ecg", 200, 0.7)
	m.ObserveRequest("(stream)", 200, 0.02)
	m.ObserveRequest("ecg", 429, 0.0002)
	m.ObserveRequest("ecg", 504, math.NaN())
	m.ObserveRequest("taxonomy", 404, -1)
	m.ObserveRequestBytes("json", 2_000_000)
	m.ObserveRequestBytes("wire", 300)
	m.ObserveRequestBytes("wire", 70_000)
	m.ObserveReload("ecg")
	m.ObserveReload("ecg")
	m.ObserveReload("taxonomy")
	m.IncInflight()
	m.IncInflight()
	m.DecInflight()
	m.IncPanics()
	m.IncShed()
	m.IncShed()
	m.IncEvicted()
	m.IncWasted()
	m.IncWasted()
	m.IncWasted()
	m.IncCancelled()
	m.IncCancelled()
	m.RegisterQueueDepth(func() int { return 7 })
	m.RegisterConcurrencyLimit(func() int { return 24 })
	m.RegisterStreams(
		func() int { return 5 },
		func() uint64 { return 2_000_000 },
		func() uint64 { return 4 },
		func() uint64 { return 1_048_576 },
	)
	var sb strings.Builder
	m.WritePrometheus(&sb)
	compareGoldenPage(t, sb.String(), filepath.Join("testdata", "metrics_golden.prom"))
}
