// Package analysis is the repo's custom static-analysis suite. It
// enforces, at lint time, the invariants the numeric and concurrent
// code relies on but the compiler cannot check:
//
//   - nodeterminism: packages on the deterministic score path must not
//     read wall clocks, draw from the global math/rand source, or build
//     results while ranging over a map (map iteration order would leak
//     into scores, breaking the bit-reproducibility the golden-score
//     and fault-injection suites assume; see internal/faultinject/doc.go).
//   - floateq: float operands must not be compared with == / != except
//     against literal zero, math.Inf/math.NaN calls, or the x != x NaN
//     idiom — everything else needs a tolerance (DESIGN.md).
//   - mutafterfit: Score*/Transform* methods must not assign to
//     receiver state; the read-only-after-Fit contract is what makes
//     concurrent scoring safe (see internal/parallel/doc.go).
//   - poolmisuse: goroutines are launched only inside
//     internal/parallel, internal/serve and internal/resilience, and
//     parallel.FirstError is used only inside internal/parallel: a
//     fan-out with results goes through parallel.Map, which returns
//     them only with a nil error.
//   - ctxpropagate: the serving packages derive every context from the
//     inbound request or a resilience.Budget — no fresh roots and no
//     context-free outbound HTTP on a request path (DESIGN.md §8).
//   - lockio: no blocking operation — channel traffic, selects without
//     default, sleeps, WaitGroup joins, network calls, abstract-stream
//     I/O — while a sync.Mutex or RWMutex is held.
//   - wirebounds: length-prefixed decoders bounds-check every decoded
//     count before it sizes an allocation and do size arithmetic in a
//     wide type (the wire.decodeSample wrap class from the PR 6 review).
//   - metricshygiene: no # HELP / # TYPE exposition literal outside
//     internal/metrics, whose typed registry turns the naming, kind and
//     suffix rules into construction-time panics.
//
// The suite is built only on the standard library (go/ast, go/parser,
// go/types, go/token) so the module stays dependency-free. Findings can
// be suppressed line-by-line with a directive that must carry a reason:
//
//	//mfodlint:allow <analyzer> <reason...>
//
// A directive on line L suppresses findings of that analyzer on line L
// (trailing comment) or line L+1 (comment above the statement).
// Malformed, reason-less, unknown-analyzer and unused directives are
// themselves findings, so every suppression in the tree stays justified
// and current.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/parallel"
)

// Finding is one diagnostic produced by an analyzer, addressed by
// file:line:col so editors and CI can jump to it.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Suppressed is true when an //mfodlint:allow directive covers the
	// finding; suppressed findings never fail the build but are kept in
	// the JSON report so reviewers can audit them.
	Suppressed bool `json:"suppressed,omitempty"`
	// Reason is the justification carried by the suppressing directive.
	Reason string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description for -list output and README.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed non-test source files of the package.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path ("repro/internal/fda").
	Path string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DirectiveCheck is the pseudo-analyzer name under which malformed or
// unused allow directives are reported. Directive findings cannot
// themselves be suppressed.
const DirectiveCheck = "directive"

// RunAnalyzers runs every analyzer over every package, applies the
// allow directives, and returns all findings (suppressed ones included,
// marked as such) sorted by position. Callers decide the exit status
// from the unsuppressed count (see Active).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// Packages are analyzed independently, so fan out over the same pool
	// the numeric code uses. Each worker fills only its own index and the
	// merge below walks the slice in order, so the result is byte-for-byte
	// what the old sequential loop produced.
	perPkg := make([][]Finding, len(pkgs))
	parallel.For(len(pkgs), 0, func(_, i int) {
		perPkg[i] = analyzePackage(pkgs[i], analyzers, known)
	})
	var all []Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// analyzePackage runs every analyzer over one package and applies that
// package's allow directives: the unit of work one pool worker handles.
func analyzePackage(pkg *Package, analyzers []*Analyzer, known map[string]bool) []Finding {
	dirs, bad := collectDirectives(pkg, known)
	all := bad

	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			findings: &raw,
		}
		a.Run(pass)
	}
	for i := range raw {
		if d := dirs.match(raw[i].Analyzer, raw[i].File, raw[i].Line); d != nil {
			raw[i].Suppressed = true
			raw[i].Reason = d.reason
			d.used = true
		}
	}
	all = append(all, raw...)
	for _, d := range dirs.all {
		if !d.used {
			all = append(all, Finding{
				Analyzer: DirectiveCheck,
				File:     d.file,
				Line:     d.line,
				Col:      d.col,
				Message: fmt.Sprintf(
					"unused //mfodlint:allow %s directive: it suppresses nothing on this or the next line; delete it or move it to the finding", d.analyzer),
			})
		}
	}
	return all
}

// Rel returns a copy of findings with file paths rewritten relative to
// root, turning the absolute loader positions into the short clickable
// `internal/pkg/file.go:line:col` form CI logs and test failures print.
// Paths that cannot be made relative are kept as-is.
func Rel(findings []Finding, root string) []Finding {
	out := make([]Finding, len(findings))
	for i, f := range findings {
		if rel, err := filepath.Rel(root, f.File); err == nil {
			f.File = rel
		}
		out[i] = f
	}
	return out
}

// Active returns the findings that fail the build: everything not
// suppressed by a valid allow directive.
func Active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
