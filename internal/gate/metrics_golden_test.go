package gate

import (
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

// TestMetricsGoldenPage pins every family the gate exports, byte for
// byte: each family gets at least one series, every scrape-time source
// is installed, and a counter above 1e6 pins integer rendering next to
// the %g forms of histogram bounds and sums.
func TestMetricsGoldenPage(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("m0", 200, 12)
	m.ObserveRequest("m0", 200, 0.0034)
	m.ObserveRequest("m0", 200, 0.7)
	m.ObserveRequest("(stream)", 200, 0.02)
	m.ObserveRequest("m0", 502, 0.3)
	m.ObserveReplica("r1", true)
	m.ObserveReplica("r1", true)
	m.ObserveReplica("r2", false)
	m.ObserveReplica("r3", true)
	m.ObserveHedge(true, "secondary")
	m.ObserveHedge(false, "primary")
	m.ObserveHedge(false, "primary")
	m.ObserveUpstreamBytes("wire", 1_234_567)
	m.ObserveUpstreamBytes("json", 640)
	m.ObserveHedgeSuppressed()
	m.ObserveDeadlineRejected()
	m.ObserveDeadlineRejected()
	m.ObserveDeadlineExpired()
	m.ObserveTopologyReload()
	m.RegisterBrownout(func() bool { return true })
	m.RegisterFleetGauges(
		func() int { return 3 },
		func() map[string]bool { return map[string]bool{"r3": true, "r2": true} },
	)
	var sb strings.Builder
	m.WritePrometheus(&sb)
	compareGoldenPage(t, sb.String(), filepath.Join("testdata", "metrics_golden.prom"))
}
