package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Mutafterfit enforces the read-only-after-Fit contract documented on
// the detectors and core.Pipeline: methods named Score* or Transform*
// must not assign to receiver state — fields, elements of
// receiver-owned slices and maps, or the pointee itself. That contract
// is what makes one fitted model safe to score from many goroutines at
// once (internal/parallel fan-out, the serve worker pool) without
// locks; see internal/parallel/doc.go. A detector's fitted model has no
// Fit (internal/detector), so no caller can retrain it, but Go cannot
// stop a method from writing its own receiver, and core.Pipeline is
// still fitted in place; this check covers both. Writes that are
// genuinely safe (for example a mutex-guarded memo) take an allow
// directive naming the guard.
var Mutafterfit = &Analyzer{
	Name: "mutafterfit",
	Doc: "forbid assignments to receiver state inside Score*/Transform* " +
		"methods; fitted models are scored concurrently and must be " +
		"read-only after Fit (see internal/parallel/doc.go)",
	Run: runMutafterfit,
}

func runMutafterfit(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "Score") && !strings.HasPrefix(fd.Name.Name, "Transform") {
				continue
			}
			recv := receiverIdent(fd)
			if recv == nil {
				continue
			}
			recvObj := p.Info.Defs[recv]
			if recvObj == nil {
				continue
			}
			check := func(lhs ast.Expr) {
				root, depth := rootIdent(lhs)
				if root == nil {
					return
				}
				// depth > 0 excludes rebinding the receiver variable
				// itself, which only changes the local copy.
				if depth > 0 && p.Info.Uses[root] == recvObj {
					p.Reportf(lhs.Pos(),
						"%s.%s writes receiver state (%s): Score*/Transform* must be read-only after Fit so concurrent scoring is race-free (see internal/parallel/doc.go)",
						recv.Name, fd.Name.Name, types.ExprString(lhs))
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						check(lhs)
					}
				case *ast.IncDecStmt:
					check(n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						check(n.Key)
					}
					if n.Value != nil {
						check(n.Value)
					}
				}
				return true
			})
		}
	}
}

func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}
