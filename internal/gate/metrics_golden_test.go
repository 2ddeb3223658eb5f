package gate

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
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
// byte: each family gets at least one series, every scrape-time family
// reads a live owner (a three-replica table with one hot reload, a
// health view with two replicas down, a brownout in force), and a
// counter above 1e6 pins integer rendering next to the %g forms of
// histogram bounds and sums.
func TestMetricsGoldenPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	writeTopo(t, path, `{"replicas":[{"name":"r1","url":"http://127.0.0.1:1"},`+
		`{"name":"r2","url":"http://127.0.0.1:2"},{"name":"r3","url":"http://127.0.0.1:3"}]}`)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	table.reloads.Add(1)
	brownout := NewBrownout(BrownoutOptions{Window: time.Hour, MinSamples: 1})
	brownout.Observe(http.StatusInternalServerError, 0)
	m := NewMetrics()
	_, err = New(Config{
		Table:    table,
		Health:   &Health{down: map[string]bool{"r3": true, "r2": true}},
		Metrics:  m,
		Brownout: brownout,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveRequest("m0", 200, 12)
	m.ObserveRequest("m0", 200, 0.0034)
	m.ObserveRequest("m0", 200, 0.7)
	m.ObserveRequest("(stream)", 200, 0.02)
	m.ObserveRequest("m0", 502, 0.3)
	m.replicas.Inc("r1", outcome(nil))
	m.replicas.Inc("r1", outcome(nil))
	m.replicas.Inc("r2", outcome(errors.New("connection refused")))
	m.replicas.Inc("r3", outcome(nil))
	m.hedges.Inc()
	m.legWins.Inc("secondary")
	m.legWins.Inc("primary")
	m.legWins.Inc("primary")
	m.upstreamBytes.Add(1_234_567, "wire")
	m.upstreamBytes.Add(640, "json")
	m.hedgesSuppressed.Inc()
	m.deadlineRejected.Inc()
	m.deadlineRejected.Inc()
	m.deadlineExpired.Inc()
	var sb strings.Builder
	m.reg.WritePrometheus(&sb)
	compareGoldenPage(t, sb.String(), filepath.Join("testdata", "metrics_golden.prom"))
}
