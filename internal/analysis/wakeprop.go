package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WakepropWaiver suppresses the wakeprop rule on the write (or the whole
// method declaration) it annotates, asserting the mutation is covered by a
// wake channel the checker cannot see — typically a WakeHint timer that
// already spans the maturation, or a caller contract that only invokes the
// method while the component is provably awake.
const WakepropWaiver = "lint:wakeprop-ok"

// observationMethods are the quiescence surface of a component: the methods
// whose answers decide whether the wake scheduler lets it sleep (Idle), keeps
// the O(1) termination counters (Done), or gates drain accounting
// (Drained/Empty). Any struct field these methods read is *wake-relevant
// state*: a mutation of such a field can flip the component from quiescent to
// runnable.
var observationMethods = map[string]bool{
	"Idle": true, "Done": true, "Drained": true, "Empty": true,
}

// schedulerSurface are methods the scheduler itself calls (or that tickpurity
// already polices); they are never treated as an unnotified entry point.
var schedulerSurface = map[string]bool{
	"Idle": true, "Done": true, "Drained": true, "Empty": true,
	"CanPush": true, "Stats": true, "Name": true, "Tick": true,
	"WakeHint": true, "SharedState": true, "HostsCallbacks": true,
	"InputLinks": true, "OutputLinks": true,
	"WorstCaseInternalLatency": true,
}

// pureFieldObservers are method names that, called on a wake-relevant field,
// only observe it (ring.Queue / sim.Link observation APIs). Any other method
// call on such a field is conservatively a mutation — Push/Drop/Reset all
// change the answer Len() gives.
var pureFieldObservers = map[string]bool{
	"Len": true, "Empty": true, "Front": true, "At": true, "Peek": true,
	"CanPush": true, "Drained": true, "Name": true, "Capacity": true,
	"Latency": true, "Pushes": true, "Pops": true, "String": true,
	"Snapshot": true, "Get": true, "Count": true,
}

// Wakeprop is the missed-wake prover for the event-driven kernel
// (internal/sim/wake.go). The scheduler lets a component sleep as soon as
// Idle answers true, and the soundness argument enumerates exactly three
// channels that can end the sleep: committed link activity, a shared-state
// partner's tick, and a WakeHint timer. A method that mutates wake-relevant
// state — a field the component's Idle/Done/Drained/Empty answers read —
// from *outside* its own Tick therefore needs one of those channels to
// announce the change, or the component sleeps through work the polling
// kernel would have seen: a silent correctness divergence the dynamic
// VerifyWakeContract harness catches only on paths a test happens to drive.
//
// For every component type (Name/Tick/Done shape) implementing Idle, the
// analyzer computes the wake-relevant field set (fields read, transitively
// through same-type helpers, by the observation methods), then walks every
// *unnotified entry point* into the component and flags writes to those
// fields. An entry point is unnotified unless one of the sanctioned wake
// channels provably covers it:
//
//   - methods reachable from Tick run while the component is awake — the
//     scheduler re-arms a ticked component for the next cycle;
//   - a path that pushes or pops a sim.Link is announced by the end-of-cycle
//     link commit, which wakes both endpoints (and declared link sharers);
//   - builder methods returning the receiver type are construction-time
//     chaining by convention — the scheduler examines every component on the
//     first cycle, so pre-run mutation cannot be missed;
//   - function literals inside a StateSharer component are completion
//     callbacks registered with the shared resource: they fire inside a
//     partner's tick, and a partner's tick wakes the component (wake.go's
//     partner rule, widened one hop for CallbackHosts).
//
// Everything else — a plain setter invoked mid-run by another component, a
// callback on a component that declares no shared state — is reported at the
// write site. A reviewed escape carries a "lint:wakeprop-ok" marker on the
// write or the method declaration, mirroring the OrderWaiver pattern:
// the point is that every unannounced mutation of wake-relevant state in the
// tree has a justification a reviewer can audit.
var Wakeprop = &Analyzer{
	Name: "wakeprop",
	Doc:  "writes to Idle/Done-observed state outside Tick must reach a wake notification (link op, partner tick, or waiver)",
	Run:  runWakeprop,
}

func runWakeprop(pass *Pass) error {
	for _, comp := range componentStructs(pass) {
		w := newWakepropComp(pass, comp)
		if w == nil {
			continue // no Idle method: the component never sleeps
		}
		w.check()
	}
	return nil
}

// wakepropComp is the per-component analysis state.
type wakepropComp struct {
	pass    *Pass
	comp    component
	methods map[string]*ast.FuncDecl // T's methods by name
	recvs   map[string]types.Object  // receiver object per method
	obs     map[string]bool          // wake-relevant field names
	obsBy   map[string][]string      // field -> observation methods reading it
	sharer  bool                     // implements StateSharer with a body
}

func newWakepropComp(pass *Pass, comp component) *wakepropComp {
	w := &wakepropComp{
		pass:    pass,
		comp:    comp,
		methods: make(map[string]*ast.FuncDecl),
		recvs:   make(map[string]types.Object),
		obs:     make(map[string]bool),
		obsBy:   make(map[string][]string),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if receiverNamed(pass, fd) != comp.named {
				continue
			}
			w.methods[fd.Name.Name] = fd
			w.recvs[fd.Name.Name] = receiverObject(pass, fd)
		}
	}
	if _, ok := w.methods["Idle"]; !ok {
		return nil
	}
	w.sharer = sharedStateMentions(pass, comp.named) != nil
	for name := range observationMethods {
		if _, ok := w.methods[name]; ok {
			w.collectObserved(name, name, make(map[string]bool))
		}
	}
	return w
}

// collectObserved gathers the receiver fields read by method `name` and by
// the same-type helpers it calls, attributing them to observation method
// `top` for diagnostics.
func (w *wakepropComp) collectObserved(top, name string, seen map[string]bool) {
	if seen[name] {
		return
	}
	seen[name] = true
	fd := w.methods[name]
	recv := w.recvs[name]
	if fd == nil || recv == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || w.pass.TypesInfo.Uses[id] != recv {
			return true
		}
		// recv.m(...) helper call: recurse; recv.f: field read.
		if _, isMethod := w.methods[sel.Sel.Name]; isMethod {
			w.collectObserved(top, sel.Sel.Name, seen)
			return true
		}
		if w.isField(sel.Sel.Name) && !w.obs[sel.Sel.Name] {
			w.obs[sel.Sel.Name] = true
		}
		if w.isField(sel.Sel.Name) {
			w.noteObserver(sel.Sel.Name, top)
		}
		return true
	})
}

func (w *wakepropComp) noteObserver(field, top string) {
	for _, t := range w.obsBy[field] {
		if t == top {
			return
		}
	}
	w.obsBy[field] = append(w.obsBy[field], top)
	sort.Strings(w.obsBy[field])
}

// isField reports whether name is a struct field of the component.
func (w *wakepropComp) isField(name string) bool {
	for i := 0; i < w.comp.str.NumFields(); i++ {
		if w.comp.str.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// tickReachable computes the method names reachable from Tick through
// same-type calls, *excluding* function-literal bodies: a closure built
// during a tick is deferred work — it runs when some other component fires
// it, outside this component's wake guarantee.
func (w *wakepropComp) tickReachable() map[string]bool {
	reach := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		if reach[name] {
			return
		}
		reach[name] = true
		fd := w.methods[name]
		recv := w.recvs[name]
		if fd == nil || recv == nil {
			return
		}
		w.forEachMethodCall(fd.Body, recv, true, func(callee string) {
			visit(callee)
		})
	}
	visit("Tick")
	return reach
}

// forEachMethodCall invokes fn for every recv.m(...) call in body;
// skipLits controls whether function-literal bodies are descended into.
func (w *wakepropComp) forEachMethodCall(body ast.Node, recv types.Object, skipLits bool, fn func(string)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if skipLits {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == recv {
			if _, isMethod := w.methods[sel.Sel.Name]; isMethod {
				fn(sel.Sel.Name)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isBuilder reports whether a method returns its own receiver type —
// the chainable construction idiom (Cyclic(), Typed(...)): such methods run
// before the system does, and the scheduler examines everything on the
// first cycle.
func (w *wakepropComp) isBuilder(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, res := range fd.Type.Results.List {
		tv, ok := w.pass.TypesInfo.Types[res.Type]
		if !ok {
			continue
		}
		t := types.Unalias(tv.Type)
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == w.comp.named.Obj() {
			return true
		}
	}
	return false
}

// check walks every unnotified entry point and reports unannounced writes.
func (w *wakepropComp) check() {
	tickReach := w.tickReachable()

	// Direct entry points: methods that are neither scheduler surface, nor
	// tick-internal, nor builders.
	names := make([]string, 0, len(w.methods))
	for name := range w.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fd := w.methods[name]
		if schedulerSurface[name] || tickReach[name] || w.isBuilder(fd) {
			continue
		}
		if w.pass.Waived(fd.Pos(), WakepropWaiver) {
			continue
		}
		w.checkEntry(name, "method "+name)
	}

	// Closure entry points: function literals anywhere in the component's
	// methods. In a StateSharer component these are completion callbacks
	// covered by the partner-tick wake; elsewhere they announce nothing.
	if w.sharer {
		return
	}
	for _, name := range names {
		fd := w.methods[name]
		recv := w.recvs[name]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if w.pass.Waived(lit.Pos(), WakepropWaiver) {
				return false
			}
			w.checkPath(lit.Body, recv, "closure in "+name, false, make(map[string]bool))
			return false // nested literals are covered by the outer walk
		})
	}
}

// checkEntry analyzes one entry method and its same-type callees as a unit:
// the whole path is discharged when any step performs a link notification.
// Literal bodies are excluded from the write report — a closure built here
// is deferred work, reported (or discharged) by the closure pass under the
// method that builds it.
func (w *wakepropComp) checkEntry(name, desc string) {
	w.checkPath(w.methods[name].Body, w.recvs[name], desc, true, map[string]bool{name: true})
}

// checkPath reports unannounced wake-relevant writes reachable from body.
// The traversal first looks for a link notification anywhere on the path
// (the end-of-cycle commit wakes the link's endpoints, so the mutation is
// announced); only notification-free paths report their writes. skipLits
// excludes function-literal bodies from the report.
func (w *wakepropComp) checkPath(body ast.Node, recv types.Object, desc string, skipLits bool, seen map[string]bool) {
	bodies := []ast.Node{body}
	recvs := []types.Object{recv}
	// Expand the path across same-type callees (closures included this
	// time: a helper's literal executed on this path shares its fate).
	for i := 0; i < len(bodies); i++ {
		w.forEachMethodCall(bodies[i], recvs[i], false, func(callee string) {
			if seen[callee] {
				return
			}
			seen[callee] = true
			if fd := w.methods[callee]; fd != nil {
				bodies = append(bodies, fd.Body)
				recvs = append(recvs, w.recvs[callee])
			}
		})
	}
	for i, b := range bodies {
		if w.hasLinkNotification(b, recvs[i]) {
			return
		}
	}
	for i, b := range bodies {
		w.reportWrites(b, recvs[i], desc, skipLits)
	}
}

// linkMutators are the sim.Link methods whose effect the end-of-cycle commit
// announces to the link's endpoints and sharers.
var linkMutators = map[string]bool{
	"Push": true, "PushEOS": true, "StageVec": true, "Pop": true, "Drop": true,
}

// hasLinkNotification reports whether body performs a mutating operation on
// a sim.Link-typed value.
func (w *wakepropComp) hasLinkNotification(body ast.Node, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !linkMutators[sel.Sel.Name] {
			return true
		}
		if tv, ok := w.pass.TypesInfo.Types[sel.X]; ok && isLinkType(tv.Type) {
			found = true
		}
		return true
	})
	return found
}

// isLinkType matches *sim.Link / sim.Link by package-path suffix.
func isLinkType(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Link" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}

// reportWrites flags writes to wake-relevant fields in one body; skipLits
// excludes function-literal bodies (covered by the closure pass).
func (w *wakepropComp) reportWrites(body ast.Node, recv types.Object, desc string, skipLits bool) {
	report := func(pos token.Pos, field, how string) {
		if w.pass.Waived(pos, WakepropWaiver) {
			return
		}
		w.pass.Reportf(pos,
			"%s of %s %s field %s, which %s reads: a sleeping component never re-examines it "+
				"(wake.go announces only link commits, partner ticks, and WakeHint timers); "+
				"push/pop a link on this path, declare the mutation channel via SharedState, or mark it %s",
			desc, w.comp.named.Obj().Name(), how, field,
			strings.Join(w.obsBy[field], "/"), WakepropWaiver)
	}
	fieldOf := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || w.pass.TypesInfo.Uses[id] != recv || recv == nil {
			return "", false
		}
		if w.obs[sel.Sel.Name] {
			return sel.Sel.Name, true
		}
		return "", false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if skipLits && n != body {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				target := lhs
				// A store through the field (s.f[i] = v, *s.f = v, s.f.g = v)
				// mutates the observed value too.
				for {
					switch t := target.(type) {
					case *ast.IndexExpr:
						target = t.X
						continue
					case *ast.StarExpr:
						target = t.X
						continue
					case *ast.SelectorExpr:
						if f, ok := fieldOf(t); ok {
							report(lhs.Pos(), f, "writes")
						} else if inner, ok := t.X.(*ast.SelectorExpr); ok {
							if f, ok := fieldOf(inner); ok {
								report(lhs.Pos(), f, "writes through")
							}
						}
					}
					break
				}
			}
		case *ast.IncDecStmt:
			if f, ok := fieldOf(x.X); ok {
				report(x.Pos(), f, "mutates")
			}
		case *ast.CallExpr:
			// recv.f.Push(...) — a mutating method call on an observed field.
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || pureFieldObservers[sel.Sel.Name] {
				return true
			}
			if inner, ok := sel.X.(*ast.SelectorExpr); ok {
				if f, ok := fieldOf(inner); ok {
					// Link fields are announced by commit, not missed.
					if tv, ok := w.pass.TypesInfo.Types[inner]; !ok || !isLinkType(tv.Type) {
						report(x.Pos(), f, "calls "+sel.Sel.Name+" on")
					}
				}
			}
			// &recv.f or recv.f passed as an argument may be mutated by the
			// callee; stay syntactic — address-of an observed field escaping
			// into a call is flagged.
			for _, arg := range x.Args {
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					if f, ok := fieldOf(u.X); ok {
						report(u.Pos(), f, "passes the address of")
					}
				}
			}
		}
		return true
	})
}
