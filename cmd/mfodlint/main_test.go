package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for _, name := range []string{
		"nodeterminism", "floateq", "mutafterfit", "poolmisuse",
		"ctxpropagate", "lockio", "wirebounds", "metricshygiene",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./internal/parallel"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s, stdout = %s", code, errb.String(), out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Active != 0 {
		t.Errorf("active findings in internal/parallel: %+v", rep.Findings)
	}
}

// TestViolationExitsOne builds a throwaway module with a float-equality
// violation and asserts the binary reports it with a file:line position
// and exit status 1 — the CI gate contract.
func TestViolationExitsOne(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package fixturemod

// Eq compares floats exactly.
func Eq(a, b float64) bool {
	return a == b
}
`)
	var out, errb bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr = %s stdout = %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "bad.go:5:") || !strings.Contains(out.String(), "floateq") {
		t.Errorf("diagnostic missing file:line position or analyzer name:\n%s", out.String())
	}
}

func TestViolationJSONReport(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package fixturemod

func Eq(a, b float64) bool {
	return a == b //mfodlint:allow floateq fixture suppression for the JSON report test
}

func Neq(a, b float64) bool {
	return a != b
}
`)
	var out, errb bytes.Buffer
	code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr = %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Active != 1 || rep.Suppressed != 1 {
		t.Errorf("active = %d suppressed = %d, want 1 and 1: %+v", rep.Active, rep.Suppressed, rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Suppressed && f.Reason == "" {
			t.Errorf("suppressed finding lost its reason: %+v", f)
		}
	}
}

// TestAuditReportsSuppressions asserts -audit lists live suppressions
// with their reasons and exits zero when every directive is sound.
func TestAuditReportsSuppressions(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "ok.go"), `package fixturemod

func Eq(a, b float64) bool {
	return a == b //mfodlint:allow floateq audited bit-identical comparison
}
`)
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "-audit", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr = %s stdout = %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "allow floateq") || !strings.Contains(out.String(), "audited bit-identical comparison") {
		t.Errorf("audit output missing the suppression and its reason:\n%s", out.String())
	}
}

// TestAuditFailsOnUnusedDirective asserts a directive that suppresses
// nothing fails the audit even though the package is otherwise clean.
func TestAuditFailsOnUnusedDirective(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "stale.go"), `package fixturemod

//mfodlint:allow floateq stale directive left behind after a refactor
func Sum(a, b float64) float64 {
	return a + b
}
`)
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "-audit", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr = %s stdout = %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "unused //mfodlint:allow") {
		t.Errorf("audit output missing the unused-directive finding:\n%s", out.String())
	}
}

// TestChangedMode builds a two-package git repo, commits it clean, then
// introduces a violation in one package: -changed must analyze only the
// touched package and report its finding.
func TestChangedMode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	if err := os.MkdirAll(filepath.Join(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a\n\nfunc A() {}\n")
	// Package b is dirty from the start; it must stay invisible to the
	// diff-restricted run below because no commit ever touches it again.
	writeFile(t, filepath.Join(dir, "b", "b.go"), `package b

func Eq(a, b float64) bool {
	return a == b
}
`)
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
		cmd.Env = append(os.Environ(),
			"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t",
			"GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t")
		if outb, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, outb)
		}
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	// Touch only package a, introducing a violation there.
	writeFile(t, filepath.Join(dir, "a", "a.go"), `package a

func Eq(a, b float64) bool {
	return a == b
}
`)
	var out, errb bytes.Buffer
	code := run([]string{"-C", dir, "-changed", "HEAD"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr = %s stdout = %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), filepath.Join("a", "a.go")) {
		t.Errorf("finding in touched package a missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), filepath.Join("b", "b.go")) {
		t.Errorf("untouched package b leaked into the diff-restricted run:\n%s", out.String())
	}

	// With nothing changed since the working tree was committed, the
	// run is a no-op that exits zero.
	git("add", ".")
	git("commit", "-q", "-m", "fix")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-changed", "HEAD"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 with no changes; stderr = %s stdout = %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "no Go files changed") {
		t.Errorf("missing no-change note:\n%s", out.String())
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
