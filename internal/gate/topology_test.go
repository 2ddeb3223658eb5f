package gate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

const topoTwo = `{
  "vnodes": 32,
  "replicas": [
    {"name": "r1", "url": "http://127.0.0.1:8081"},
    {"name": "r2", "url": "http://127.0.0.1:8082/"}
  ]
}`

func writeTopo(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseTopologyRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"empty replicas":  `{"replicas": []}`,
		"no name":         `{"replicas": [{"name": "", "url": "http://h:1"}]}`,
		"duplicate name":  `{"replicas": [{"name": "a", "url": "http://h:1"}, {"name": "a", "url": "http://h:2"}]}`,
		"bad scheme":      `{"replicas": [{"name": "a", "url": "ftp://h:1"}]}`,
		"no host":         `{"replicas": [{"name": "a", "url": "http://"}]}`,
		"unknown field":   `{"replicass": []}`,
		"not json at all": `topology? what topology`,
	}
	for name, doc := range cases {
		if _, err := ParseTopology(strings.NewReader(doc)); !errors.Is(err, ErrTopology) {
			t.Errorf("%s: err = %v, want ErrTopology", name, err)
		}
	}
}

func TestLoadTableAndURLNormalization(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopo(t, path, topoTwo)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	f := table.Fleet()
	if f.ring.Len() != 2 {
		t.Fatalf("ring has %d replicas, want 2", f.ring.Len())
	}
	if got := f.urls["r2"]; got != "http://127.0.0.1:8082" {
		t.Fatalf("trailing slash not normalized: %q", got)
	}
	if f.topo.VNodes != 32 {
		t.Fatalf("vnodes = %d, want 32", f.topo.VNodes)
	}
}

func TestReloadKeepsOldFleetOnBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopo(t, path, topoTwo)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	old := table.Fleet()
	writeTopo(t, path, `{"replicas": [`) // mid-write truncation
	if err := table.Reload(); err == nil {
		t.Fatal("Reload of truncated file succeeded")
	}
	if table.Fleet() != old {
		t.Fatal("failed reload swapped the fleet snapshot")
	}
}

func TestReloadFaultInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopo(t, path, topoTwo)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	old := table.Fleet()
	faultinject.Arm(FaultTopologyReload, faultinject.Fault{Err: errors.New("boom"), Times: 1})
	defer faultinject.Reset()
	if err := table.Reload(); err == nil {
		t.Fatal("Reload with armed fault succeeded")
	}
	if table.Fleet() != old {
		t.Fatal("faulted reload swapped the fleet snapshot")
	}
	if err := table.Reload(); err != nil {
		t.Fatalf("reload after fault drained: %v", err)
	}
}

func TestWatchHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopo(t, path, topoTwo)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	table.Watch(5*time.Millisecond, stop, nil)

	three := strings.Replace(topoTwo,
		`{"name": "r2", "url": "http://127.0.0.1:8082/"}`,
		`{"name": "r2", "url": "http://127.0.0.1:8082/"},
     {"name": "r3", "url": "http://127.0.0.1:8083"}`, 1)
	// A same-size same-mtime rewrite can evade the stat signature; make
	// the content longer and give the poller time to notice.
	writeTopo(t, path, three)
	deadline := time.Now().Add(5 * time.Second)
	for table.Fleet().ring.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never picked up the 3-replica topology; ring len = %d", table.Fleet().ring.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWatchReportsReloadErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopo(t, path, topoTwo)
	table, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 16)
	stop := make(chan struct{})
	defer close(stop)
	table.Watch(5*time.Millisecond, stop, func(e error) {
		if e == nil {
			return
		}
		select {
		case errc <- e:
		default:
		}
	})
	writeTopo(t, path, `{"replicas": [{"name":"broken"`)
	select {
	case e := <-errc:
		if !errors.Is(e, ErrTopology) {
			t.Fatalf("onErr got %v, want ErrTopology", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never reported the reload error")
	}
	if table.Fleet().ring.Len() != 2 {
		t.Fatal("broken file changed the serving fleet")
	}
}
