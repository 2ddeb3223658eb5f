package analysis

import (
	"go/types"
	"path"
	"sort"
	"testing"
)

// deadCodeAllow lists the functions and methods that no non-test file
// calls but that stay, each with the reason. Keys are
// "<package>.<Func>" or "<package>.<Type>.<Method>".
var deadCodeAllow = map[string]string{
	"core.Pipeline.Domain": "called by the benchmark module, which the loader does not see",

	"linalg.Dense.T":            "oracle: reference transpose for the span products and the solver residuals",
	"linalg.Dense.Mul":          "oracle: reference product for SpanMatrix.GramBandInto (span_test.go) and the banded solver fixtures (band_test.go)",
	"linalg.Dense.MulVec":       "oracle: reference product for SpanMatrix.AtVecInto and MulVecInto (span_test.go) and the banded solver residuals (band_test.go)",
	"linalg.Dense.Equal":        "oracle: compares reference and computed matrices in the Dense tests",
	"linalg.Dense.Clone":        "oracle: FuzzSpanFit's dense reference copies its system for the ridge retry",
	"linalg.Dense.MaxAbs":       "oracle: FuzzSpanFit's dense reference takes its ridge ε from the whole matrix",
	"linalg.Identity":           "fixture builder for the solver tests",
	"linalg.Bandwidth":          "fixture check for the banded solver tests",
	"linalg.BandCholesky.Solve": "the call the banded solver tests make",
	"bspline.Integrate":         "oracle: quadrature reference for PenaltyMatrix",
	"bspline.NewCubic":          "fixture builder for the B-spline tests",
	"bspline.BSpline.Knots":     "observation of the knot vector in the B-spline tests",
	"depth.SDO":                 "oracle: the only exact check of the sdoAt/buildReference code Dir.out uses",
	"core.NaNGuard":             "fixture: the finite-score assertion in two core tests",

	"resilience.Breaker.State":      "observation hook on the live breaker",
	"resilience.Budget.Attempts":    "observation hook on the live budget",
	"resilience.Budget.Context":     "observation hook on the live budget",
	"resilience.Budget.Deadline":    "observation hook on the live budget",
	"resilience.RetryBudget.Tokens": "observation hook on the live retry budget",
	"serve.AIMD.Inflight":           "observation hook on the live concurrency limiter",
	"ocsvm.Model.SupportVectors":    "observation hook: nu lower-bounds the support-vector fraction",

	"analysis.LoadDir":   "test support: loads the analyzer fixture packages",
	"metricstest.Check":  "test support: the strict page parser the e2e tests run",
	"faultinject.Disarm": "test support: clears armed fault points between tests",

	"eval.BestThresholdF1": "paper feature (Sec. 4.2 threshold learner) exercised end to end by the integration test",

	// Called only by their own tests; each goes together with those
	// tests in a later change (ROADMAP.md lists the order).
	"linalg.LeastSquares":   pendingDeletion,
	"eval.AveragePrecision": pendingDeletion,
}

const pendingDeletion = "pending deletion: only its own tests call it"

// TestNoDeadCode fails on any function or method declared in a
// non-test file that no non-test file uses. Interface implementations,
// main and init, and the entries of deadCodeAllow are exempt; an
// allowlist entry that no longer names an unused function fails too.
// The benchmark module is outside the loaded module, so its calls are
// invisible here (the bench-smoke make target builds it).
func TestNoDeadCode(t *testing.T) {
	pkgs := loadRepo(t)
	used := map[*types.Func]bool{}
	ifaces := lookupStdInterfaces(pkgs)
	var named []types.Type // the module's non-interface types
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			ifaces = appendInterfaces(ifaces, tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				ifaces = appendInterfaces(ifaces, tn.Type())
				if !types.IsInterface(tn.Type()) {
					named = append(named, tn.Type())
				}
			}
		}
	}

	allowed := map[string]bool{}
	var dead []string
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn] || fn.Name() == "main" || fn.Name() == "init" {
				continue
			}
			name := path.Base(p.Path) + "."
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if implementsAny(recv.Type(), fn.Name(), ifaces) || implementationUsed(recv.Type(), fn.Name(), named, used) {
					continue
				}
				name += recvName(recv.Type()) + "."
			}
			name += fn.Name()
			if _, ok := deadCodeAllow[name]; ok {
				allowed[name] = true
				continue
			}
			dead = append(dead, p.Fset.Position(fn.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
	for name := range deadCodeAllow {
		if !allowed[name] {
			t.Errorf("stale deadCodeAllow entry %s: it has a non-test caller or no longer exists", name)
		}
	}
}

// stdInterfaces are the standard-library interfaces through which the
// standard library, not module code, calls a method.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"net/http", "Flusher"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"flag", "Value"},
}

// lookupStdInterfaces resolves stdInterfaces in the packages the module
// imports, directly or not, plus error and the errors package's
// Unwrap() error.
func lookupStdInterfaces(pkgs []*Package) []*types.Interface {
	seen := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if _, ok := seen[p.Path()]; ok {
			return
		}
		seen[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	errType := types.Universe.Lookup("error").Type()
	// errors.Is, As and Unwrap call Unwrap through an unnamed interface.
	unwrap := types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(0, nil, "", errType)), false))
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	for _, s := range stdInterfaces {
		if p, ok := seen[s.pkg]; ok {
			if obj := p.Scope().Lookup(s.name); obj != nil {
				ifaces = appendInterfaces(ifaces, obj.Type())
			}
		}
	}
	return ifaces
}

// appendInterfaces adds t to ifaces when it is a non-empty interface,
// and the interfaces among a function type's parameters, so that an
// interface the module only passes values to (sort.Interface, say)
// counts.
func appendInterfaces(ifaces []*types.Interface, t types.Type) []*types.Interface {
	if t == nil {
		return ifaces
	}
	if sig, ok := t.(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			ifaces = appendInterfaces(ifaces, sig.Params().At(i).Type())
		}
		return ifaces
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return ifaces
	}
	for _, have := range ifaces {
		if have == it {
			return ifaces
		}
	}
	return append(ifaces, it)
}

// implementsAny reports whether method name on recv satisfies a method
// of some interface that recv (or a pointer to it) implements. Methods
// declared inside an interface type are left to implementationUsed.
func implementsAny(recv types.Type, name string, ifaces []*types.Interface) bool {
	if types.IsInterface(recv) {
		return false
	}
	base := recv
	if ptr, ok := recv.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	for _, it := range ifaces {
		if hasMethod(it, name) && (types.Implements(base, it) || types.Implements(types.NewPointer(base), it)) {
			return true
		}
	}
	return false
}

// implementationUsed reports whether recv is an interface and a module
// type implementing it has a used method called name: an interface
// method is live when some implementation of it is called, even if
// never through the interface.
func implementationUsed(recv types.Type, name string, named []types.Type, used map[*types.Func]bool) bool {
	it, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for _, t := range named {
		for _, impl := range []types.Type{t, types.NewPointer(t)} {
			if !types.Implements(impl, it) {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(impl, false, nil, name); m != nil {
				if fn, ok := m.(*types.Func); ok && used[fn] {
					return true
				}
			}
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
