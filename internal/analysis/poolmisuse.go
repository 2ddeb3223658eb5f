package analysis

import (
	"go/ast"
	"go/types"
)

// goroutinePkgs are the packages allowed to launch goroutines directly.
// Everything else fans out through the internal/parallel pool, whose
// index-claiming loop keeps results bitwise deterministic and whose
// panic re-raise keeps the serve pool's recover semantics intact.
// Matched by import-path base so fixture packages participate.
var goroutinePkgs = map[string]bool{
	"parallel":   true,
	"serve":      true,
	"resilience": true,
}

// Poolmisuse enforces the two concurrency rules from
// internal/parallel/doc.go: goroutines are launched only inside the
// dedicated concurrency packages (internal/parallel, internal/serve,
// internal/resilience) — numeric code fans out via parallel.For or
// parallel.Map — and parallel.FirstError is used only inside
// internal/parallel. A fan-out that returns values goes through
// parallel.Map, which hands its results back only with a nil error, so
// no caller can read the partial results of a failed run.
//
// internal/gate and the cmd binaries are deliberately NOT on the
// allowlist: their goroutines are lifecycle plumbing (accept loops, the
// topology watcher, the health prober, hedge legs), not numeric
// fan-out, and each one must carry an individual
// `//mfodlint:allow poolmisuse <reason>` directive naming how it is
// bounded and joined. Blanket-allowing those packages would also let
// unannotated scoring fan-out slip in beside the plumbing.
var Poolmisuse = &Analyzer{
	Name: "poolmisuse",
	Doc: "forbid go statements outside internal/parallel, internal/serve and " +
		"internal/resilience, and parallel.FirstError outside internal/parallel " +
		"(see internal/parallel/doc.go)",
	Run: runPoolmisuse,
}

func runPoolmisuse(p *Pass) {
	base := pathBase(p.Path)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goroutinePkgs[base] {
					p.Reportf(n.Pos(),
						"goroutine launched outside internal/parallel, internal/serve and internal/resilience: numeric fan-out goes through parallel.For so results stay deterministic and panics are contained (see internal/parallel/doc.go)")
				}
			case *ast.Ident:
				if base != "parallel" && isFirstError(p.Info.Uses[n]) {
					p.Reportf(n.Pos(),
						"parallel.FirstError outside internal/parallel: fan out through parallel.Map, which returns results only with a nil error, so a failed run's partial results cannot be read (see internal/parallel/doc.go)")
				}
			}
			return true
		})
	}
}

// isFirstError reports whether obj is the package-level
// parallel.FirstError, called or taken as a value.
func isFirstError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "FirstError" && fn.Pkg() != nil && pathBase(fn.Pkg().Path()) == "parallel" && recvIsNil(fn)
}
