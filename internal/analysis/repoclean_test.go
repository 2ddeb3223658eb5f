package analysis

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repoPackages loads and type-checks the whole module once, for every
// test that checks the real tree.
var repoPackages = sync.OnceValues(func() ([]*Package, error) {
	return Load("../..", []string{"./..."})
})

func loadRepo(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := repoPackages()
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	return pkgs
}

// TestRepoClean runs the full analyzer suite over the real tree, the
// same gate CI's lint job applies. Keeping it in tier-1 means a PR that
// introduces a violation fails `go test ./...`, not just the lint job.
func TestRepoClean(t *testing.T) {
	pkgs := loadRepo(t)
	// Relativize to the module root so a failure prints the clickable
	// internal/pkg/file.go:line:col form.
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatalf("resolve module root: %v", err)
	}
	findings := Rel(RunAnalyzers(pkgs, All()), root)
	for _, f := range Active(findings) {
		t.Errorf("repo not lint-clean: %s", f)
	}
	// Every surviving suppression must carry its justification; the
	// directive checker enforces this at lint time, assert it end to end.
	for _, f := range findings {
		if f.Suppressed && strings.TrimSpace(f.Reason) == "" {
			t.Errorf("suppressed finding without reason: %s", f)
		}
	}
}
