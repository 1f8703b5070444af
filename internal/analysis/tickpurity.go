package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TickPureWaiver suppresses the tickpurity rule on the method it annotates,
// asserting the mutation is invisible to simulation results.
const TickPureWaiver = "lint:tickpure-ok"

// pureMethodNames are the observation methods the simulator kernel may call
// outside the component's own tick: Idle gates the idle-skip, CanPush gates
// producers, Done/Drained drive termination, Empty gates consumers, and
// Stats must be a plain accessor. The idle-skip runner calls Idle and the
// polling reference does not, and the two call the others at different
// points and different numbers of times. So every one of these must be
// observably pure: a field write inside any of them makes the two runs
// diverge, which is a determinism hole.
var pureMethodNames = map[string]bool{
	"Idle": true, "CanPush": true, "Done": true,
	"Drained": true, "Empty": true, "Stats": true,
}

// knownPureCalls are cross-package callees the purity checker accepts.
// Everything else outside the analyzed package is treated as potentially
// impure — the checker cannot see its body — and must be waived explicitly.
// Keyed by "pkgPathSuffix.Type.Method" (or "pkgPathSuffix.Func").
var knownPureCalls = map[string]bool{
	// sim.Link observation API (internal/sim/link.go documents purity).
	"internal/sim.Link.CanPush": true, "internal/sim.Link.Empty": true,
	"internal/sim.Link.Drained": true, "internal/sim.Link.Peek": true,
	"internal/sim.Link.Name": true, "internal/sim.Link.Capacity": true,
	"internal/sim.Link.Latency": true, "internal/sim.Link.Pushes": true,
	"internal/sim.Link.Pops": true,
	// sim.System accessors.
	"internal/sim.System.Stats": true, "internal/sim.System.Cycle": true,
	"internal/sim.System.Components": true, "internal/sim.System.Links": true,
	// dram.HBM observation API: pure functions of (state, cycle).
	"internal/dram.HBM.Drained": true, "internal/dram.HBM.Idle": true,
	"internal/dram.HBM.QuiescentAt": true,
	// ring.Queue observers (internal/ring/ring.go documents purity).
	"internal/ring.Queue.Len": true, "internal/ring.Queue.Empty": true,
	"internal/ring.Queue.Front": true, "internal/ring.Queue.At": true,
}

// TickPurity verifies that the kernel's observation methods cannot mutate
// simulation state. The checker walks each target method body and flags:
//
//   - assignments, IncDec, sends, deletes, or range-clobbers whose target
//     is not provably local to the call;
//   - calls to functions it cannot prove pure: same-package callees are
//     checked recursively; cross-package callees must be on the known-pure
//     allowlist; calls through interfaces or function values are opaque.
//
// Methods are selected by name (Idle, CanPush, Done, Drained, Empty, Stats)
// on simulation actors — types that also have a Tick, Push, or Pop method —
// so ordinary data types with an Empty() helper are not dragged in. A
// sanctioned impurity (one whose effect is invisible to results) carries a
// "lint:tickpure-ok" waiver on the method declaration.
var TickPurity = &Analyzer{
	Name: "tickpurity",
	Doc:  "kernel observation methods (Idle/CanPush/Done/Drained/Empty/Stats) must be observably pure",
	Run:  runTickPurity,
}

func runTickPurity(pass *Pass) error {
	pc := newPurityChecker(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !pureMethodNames[fd.Name.Name] {
				continue
			}
			named := receiverNamed(pass, fd)
			if named == nil || !isSimActor(named) {
				continue
			}
			if pass.Waived(fd.Pos(), TickPureWaiver) {
				continue
			}
			if reason := pc.checkBody(fd); reason != nil {
				pass.Reportf(reason.pos,
					"%s.%s must be observably pure (the idle-skip runner and the polling reference call it at different points): %s; "+
						"if the effect is invisible to results, annotate the method %s",
					named.Obj().Name(), fd.Name.Name, reason.what, TickPureWaiver)
			}
		}
	}
	return nil
}

// isSimActor reports whether the type participates in the simulation
// protocol: it has a Tick (component), or Push/Pop (link-like) method.
func isSimActor(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Tick", "Push", "Pop":
			return true
		}
	}
	return false
}

// isComponentType reports whether *T satisfies the component shape.
func isComponentType(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	hasName, hasTick, hasDone := false, false, false
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch fn.Name() {
		case "Name":
			hasName = sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				isBasic(sig.Results().At(0).Type(), types.String)
		case "Tick":
			hasTick = sig.Params().Len() == 1 && sig.Results().Len() == 0 &&
				isBasic(sig.Params().At(0).Type(), types.Int64)
		case "Done":
			hasDone = sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				isBasic(sig.Results().At(0).Type(), types.Bool)
		}
	}
	return hasName && hasTick && hasDone
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Kind() == kind
}

// receiverNamed resolves the named type a method's receiver belongs to.
func receiverNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// impurity is one reason a function is not pure.
type impurity struct {
	pos  token.Pos
	what string
}

// purityChecker memoizes per-function purity verdicts across the package so
// helper chains (Idle → helper → helper) are each analyzed once.
type purityChecker struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
	memo  map[types.Object]*impurity
	stack map[types.Object]bool
}

func newPurityChecker(pass *Pass) *purityChecker {
	pc := &purityChecker{
		pass:  pass,
		decls: make(map[types.Object]*ast.FuncDecl),
		memo:  make(map[types.Object]*impurity),
		stack: make(map[types.Object]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					pc.decls[obj] = fd
				}
			}
		}
	}
	return pc
}

// checkBody analyzes one function declaration directly (uncached entry for
// the target methods).
func (pc *purityChecker) checkBody(fd *ast.FuncDecl) *impurity {
	locals := localObjects(pc.pass, fd)
	return pc.walk(fd.Body, locals)
}

// checkObj analyzes a same-package callee by object, memoized. Recursion
// cycles are optimistically pure: an impurity anywhere in the cycle is
// still found on the path that contains it.
func (pc *purityChecker) checkObj(obj types.Object) *impurity {
	if v, ok := pc.memo[obj]; ok {
		return v
	}
	if pc.stack[obj] {
		return nil
	}
	fd, ok := pc.decls[obj]
	if !ok {
		return &impurity{pos: obj.Pos(), what: fmt.Sprintf("calls %s whose body is not in this package", obj.Name())}
	}
	pc.stack[obj] = true
	v := pc.checkBody(fd)
	delete(pc.stack, obj)
	pc.memo[obj] = v
	return v
}

// localObjects collects the variables declared by the function itself —
// its body's definitions and its named results. Assignments to these are
// pure; assignments to anything else (receiver fields, captured variables,
// dereferenced pointers) are observable.
func localObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, n := range f.Names {
				if obj := pass.TypesInfo.Defs[n]; obj != nil {
					locals[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					locals[obj] = true
				}
			}
		}
		return true
	})
	return locals
}

// walk scans a body for impurities. Value-typed parameters count as local
// (mutating a copy is invisible); everything pointer-shaped that was not
// created in the body is observable state.
func (pc *purityChecker) walk(body *ast.BlockStmt, locals map[types.Object]bool) *impurity {
	var found *impurity
	record := func(pos token.Pos, format string, args ...any) {
		if found == nil {
			found = &impurity{pos: pos, what: fmt.Sprintf(format, args...)}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if !pc.isLocalTarget(lhs, locals) {
					record(lhs.Pos(), "writes %s", exprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if !pc.isLocalTarget(x.X, locals) {
				record(x.Pos(), "mutates %s", exprString(x.X))
			}
		case *ast.SendStmt:
			record(x.Pos(), "sends on a channel")
		case *ast.GoStmt:
			record(x.Pos(), "starts a goroutine")
		case *ast.DeferStmt:
			record(x.Pos(), "defers a call (mutation-by-convention)")
		case *ast.CallExpr:
			if why := pc.checkCall(x); why != "" {
				record(x.Pos(), "%s", why)
			}
		}
		return true
	})
	return found
}

// isLocalTarget reports whether an assignment target is invisible outside
// the call: a local variable, the blank identifier, or a selection/index
// rooted at a local value (not reached through a pointer or captured var).
func (pc *purityChecker) isLocalTarget(e ast.Expr, locals map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return true
		}
		obj := pc.pass.TypesInfo.Defs[x]
		if obj == nil {
			obj = pc.pass.TypesInfo.Uses[x]
		}
		return obj != nil && locals[obj]
	case *ast.SelectorExpr:
		// A selector store is local only when its base is a local value
		// (not pointer-typed: writing through a local pointer mutates the
		// pointee, which may be shared).
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pc.pass.TypesInfo.Uses[base]
		if obj == nil || !locals[obj] {
			return false
		}
		_, isPtr := types.Unalias(obj.Type()).(*types.Pointer)
		return !isPtr
	case *ast.IndexExpr:
		// Writing an element of a local slice/map may still be visible if
		// the backing store escaped; conservatively require the base to be
		// a local non-reference... slices and maps are references, so only
		// local arrays qualify.
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pc.pass.TypesInfo.Uses[base]
		if obj == nil || !locals[obj] {
			return false
		}
		_, isArray := types.Unalias(obj.Type()).(*types.Array)
		return isArray
	case *ast.ParenExpr:
		return pc.isLocalTarget(x.X, locals)
	default:
		return false
	}
}

// checkCall classifies one call: builtins and conversions are pure, panics
// are allowed (they abort the run rather than skew it), same-package
// callees are checked recursively, cross-package callees consult the
// allowlist. Returns "" when pure, else the reason.
func (pc *purityChecker) checkCall(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := pc.pass.TypesInfo.Uses[fun]; obj != nil {
			switch o := obj.(type) {
			case *types.Builtin:
				switch o.Name() {
				case "len", "cap", "min", "max", "panic", "append", "make", "new", "print", "println":
					// append/make/new build fresh values; whether the
					// result reaches observable state is the assignment
					// walker's concern.
					return ""
				default:
					return fmt.Sprintf("calls builtin %s", o.Name())
				}
			case *types.TypeName:
				return "" // conversion
			case *types.Func:
				return pc.checkCallee(o)
			case *types.Var:
				return fmt.Sprintf("calls through function value %s (purity unknowable)", fun.Name)
			}
		}
		// Conversion to an unresolved type or similar; treat as pure.
		return ""
	case *ast.SelectorExpr:
		if sel, ok := pc.pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return pc.checkCallee(fn)
			}
			return fmt.Sprintf("calls through field %s (purity unknowable)", fun.Sel.Name)
		}
		// Qualified identifier pkg.F or conversion pkg.T(x).
		if obj := pc.pass.TypesInfo.Uses[fun.Sel]; obj != nil {
			switch o := obj.(type) {
			case *types.Func:
				return pc.checkCallee(o)
			case *types.TypeName:
				return ""
			}
		}
		return fmt.Sprintf("calls %s (purity unknowable)", exprString(fun))
	default:
		return fmt.Sprintf("calls %s (purity unknowable)", exprString(call.Fun))
	}
}

// checkCallee decides purity for a resolved function object.
func (pc *purityChecker) checkCallee(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg != nil && pkg == pc.pass.Pkg {
		if why := pc.checkObj(fn); why != nil {
			return fmt.Sprintf("calls %s which %s", fn.Name(), why.what)
		}
		return ""
	}
	if knownPureCalls[calleeKey(fn)] {
		return ""
	}
	return fmt.Sprintf("calls %s outside the known-pure set", calleeName(fn))
}

// calleeKey builds the allowlist key for a cross-package function:
// "pkgPathSuffix.Type.Method" using the last two path elements.
func calleeKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	path := pkg.Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.LastIndex(path[:i], "/"); j >= 0 {
			path = path[j+1:]
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// calleeName renders a readable callee for messages.
func calleeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	default:
		return "expression"
	}
}
