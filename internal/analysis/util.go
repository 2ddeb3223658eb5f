package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// pathBase returns the last element of an import path, the unit the
// package-scoped analyzers match on ("repro/internal/fda" -> "fda").
func pathBase(importPath string) string {
	return path.Base(importPath)
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a declared function (conversion,
// builtin, function-typed variable).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvIsNil reports whether fn is a package-level function (no
// receiver), distinguishing http.Get the helper from a Get method on
// some unrelated type.
func recvIsNil(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// rootIdent unwraps selector / index / star / paren chains down to the
// base identifier and reports how many layers were unwrapped.
// "m.cache[k]" -> (m, 2); "x" -> (x, 0); "(*f).n" -> (f, 2).
func rootIdent(e ast.Expr) (*ast.Ident, int) {
	depth := 0
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, depth
		case *ast.SelectorExpr:
			e = x.X
			depth++
		case *ast.IndexExpr:
			e = x.X
			depth++
		case *ast.StarExpr:
			e = x.X
			depth++
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, depth
		}
	}
}
