package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Fixture packages under testdata/src carry their expectations inline:
// a trailing `// want "substr"` comment asserts that the analyzer under
// test reports an unsuppressed finding on that line whose message
// contains substr. Lines with //mfodlint:allow directives assert the
// opposite — their findings must come back suppressed, with the
// directive's reason attached — and are checked via wantSuppressed.

var wantQuoteRE = regexp.MustCompile(`"[^"]*"`)

type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantQuoteRE.FindAllString(c.Text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment without quoted substring", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, substr: s})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over one fixture package, matches the
// unsuppressed findings against the fixture's want comments, and
// returns all findings for further assertions.
func checkFixture(t *testing.T, name string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := RunAnalyzers([]*Package{pkg}, analyzers)
	wants := collectWants(t, pkg)
	for _, f := range Active(findings) {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.substr)
		}
	}
	return findings
}

// wantSuppressed asserts the number of directive-suppressed findings
// and that each carries the directive's reason.
func wantSuppressed(t *testing.T, findings []Finding, n int) {
	t.Helper()
	var got int
	for _, f := range findings {
		if !f.Suppressed {
			continue
		}
		got++
		if strings.TrimSpace(f.Reason) == "" {
			t.Errorf("suppressed finding without a reason: %s", f)
		}
	}
	if got != n {
		t.Errorf("suppressed findings = %d, want %d", got, n)
	}
}

func TestNodeterminismFixture(t *testing.T) {
	findings := checkFixture(t, "fda", Nodeterminism)
	wantSuppressed(t, findings, 2) // SortedKeys map range + Allowed clock read
}

func TestNodeterminismSkipsOffPathPackages(t *testing.T) {
	findings := checkFixture(t, "other", Nodeterminism)
	if len(findings) != 0 {
		t.Errorf("nodeterminism findings outside the deterministic set: %v", findings)
	}
}

func TestFloateqFixture(t *testing.T) {
	findings := checkFixture(t, "floatpkg", Floateq)
	wantSuppressed(t, findings, 1)
}

func TestMutafterfitFixture(t *testing.T) {
	findings := checkFixture(t, "detector", Mutafterfit)
	wantSuppressed(t, findings, 1)
}

func TestPoolmisuseFixture(t *testing.T) {
	findings := checkFixture(t, "worker", Poolmisuse)
	wantSuppressed(t, findings, 1)
}

func TestCtxpropagateFixture(t *testing.T) {
	findings := checkFixture(t, "client", Ctxpropagate)
	wantSuppressed(t, findings, 1) // Janitor background root
}

func TestCtxpropagateSkipsNonServingPackages(t *testing.T) {
	findings := checkFixture(t, "other", Ctxpropagate)
	if len(findings) != 0 {
		t.Errorf("ctxpropagate findings outside the serving packages: %v", findings)
	}
}

func TestLockioFixture(t *testing.T) {
	findings := checkFixture(t, "locks", Lockio)
	wantSuppressed(t, findings, 1) // AllowedHandoff buffered send
}

func TestWireboundsFixture(t *testing.T) {
	findings := checkFixture(t, "decoder", Wirebounds)
	wantSuppressed(t, findings, 1) // AllowedTag constant-compared tag
	// The wire fixture's reader.go is clean; a decode in its other file
	// is a finding.
	checkFixture(t, "wire", Wirebounds)
}

func TestMetricshygieneFixture(t *testing.T) {
	findings := checkFixture(t, "metricspkg", Metricshygiene)
	wantSuppressed(t, findings, 1) // RenderAllowed upstream page
}

// TestFixtureViolationPositions locks the acceptance contract that
// fixture violations come back with usable file:line positions.
func TestFixtureViolationPositions(t *testing.T) {
	pkg := loadFixture(t, "floatpkg")
	findings := Active(RunAnalyzers([]*Package{pkg}, []*Analyzer{Floateq}))
	if len(findings) == 0 {
		t.Fatal("no findings on the floateq fixture")
	}
	for _, f := range findings {
		if !strings.HasSuffix(f.File, "fixture.go") || f.Line <= 0 || f.Col <= 0 {
			t.Errorf("finding without usable position: %#v", f)
		}
	}
}
