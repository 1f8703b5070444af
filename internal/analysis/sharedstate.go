package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SharedStateWaiver suppresses the sharedstate rule on the field it
// annotates, asserting the referenced state is immutable for the lifetime
// of the run (e.g. a read-only index snapshot walked by several nodes).
const SharedStateWaiver = "lint:sharedstate-ok"

// SharedState enforces the wake scheduler's partner contract: a simulator
// component (any type with Name/Tick/Done methods) holding a reference that
// can alias mutable heap state created outside the component — a *dram.HBM,
// a shared scratchpad Mem, a LoopCtl, a shared map — must surface that
// reference through SharedState(), or the scheduler in internal/sim/wake.go
// can leave it asleep while a partner mutates that state, and the run
// silently diverges from the polling kernel.
//
// A field is suspect when both hold:
//
//   - its type can reach mutable non-link heap state (a pointer to a named
//     type other than sim.Link or sim.Stats, a map, or a channel — slices,
//     arrays and structs are traversed; funcs are exempt because datapath
//     closures are covered by the single-pipeline ordering argument in
//     fabric.Map's doc);
//   - the package assigns it a value originating outside the component: a
//     constructor parameter, a package-level variable, or another object's
//     field. References the component makes itself (make, new, composite
//     literals, call results) are owned, not shared.
//
// A suspect field passes when the component implements StateSharer and its
// SharedState body mentions the field, or when the field's declaration or
// the external assignment carries a "lint:sharedstate-ok" waiver.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "components aliasing external mutable state must declare it via SharedState()",
	Run:  runSharedState,
}

// runSharedState drives the rule over one package.
func runSharedState(pass *Pass) error {
	comps := componentStructs(pass)
	if len(comps) == 0 {
		return nil
	}
	ext := newOriginAnalysis(pass)
	for _, comp := range comps {
		checkComponentSharing(pass, comp, ext)
	}
	return nil
}

// component pairs a named component struct with its syntax.
type component struct {
	named  *types.Named
	str    *types.Struct
	spec   *ast.TypeSpec
	fields *ast.FieldList
}

// componentStructs finds every named struct type in the package whose
// pointer method set satisfies the sim.Component shape: Name() string,
// Tick(int64), Done() bool. The check is structural, so the analyzer works
// on any package without importing the simulator.
func componentStructs(pass *Pass) []component {
	var out []component
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok || !isComponentType(named) {
					continue
				}
				str, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				out = append(out, component{named: named, str: str, spec: ts, fields: st.Fields})
			}
		}
	}
	return out
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

// checkComponentSharing applies the sharedstate rule to one component.
func checkComponentSharing(pass *Pass, comp component, ext *originAnalysis) {
	declared := sharedStateMentions(pass, comp.named)
	for _, field := range comp.fields.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			unsafeDesc := sharedReach(obj.Type(), make(map[types.Type]bool))
			if unsafeDesc == "" {
				continue
			}
			assign := ext.externalAssignment(comp.named, name.Name)
			if !assign.IsValid() {
				continue
			}
			if declared != nil && declared[name.Name] {
				continue
			}
			if pass.Waived(name.Pos(), SharedStateWaiver) || pass.Waived(assign, SharedStateWaiver) {
				continue
			}
			where := pass.Fset.Position(assign)
			pass.Reportf(name.Pos(),
				"component %s field %s can alias mutable shared state (%s) assigned from outside the component at %s:%d; "+
					"declare it in SharedState() so the wake scheduler wakes its sharers, or mark the field %s if the state is immutable",
				comp.named.Obj().Name(), name.Name, unsafeDesc,
				trimPath(where.Filename), where.Line, SharedStateWaiver)
		}
	}
}

// trimPath shortens an absolute filename to its last two path elements.
func trimPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) > 2 {
		return strings.Join(parts[len(parts)-2:], "/")
	}
	return p
}

// sharedReach reports how t can reach mutable heap state shareable between
// components, returning a human description of the first such reach or ""
// when t is safe. sim.Link pointers are safe — the scheduler already unions
// link endpoints through the port interfaces. Funcs are exempt (see the
// analyzer doc); everything else recurses structurally.
func sharedReach(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := types.Unalias(t).(type) {
	case *types.Basic:
		return ""
	case *types.Named:
		return sharedReach(u.Underlying(), seen)
	case *types.Pointer:
		if isSimSynchronized(u.Elem()) {
			return ""
		}
		return "pointer " + types.TypeString(u, nil)
	case *types.Map:
		return "map " + types.TypeString(u, nil)
	case *types.Chan:
		return "chan " + types.TypeString(u, nil)
	case *types.Slice:
		return sharedReach(u.Elem(), seen)
	case *types.Array:
		return sharedReach(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if d := sharedReach(u.Field(i).Type(), seen); d != "" {
				return d
			}
		}
		return ""
	case *types.Signature:
		return ""
	case *types.Interface:
		if u.Empty() {
			return "interface{} value"
		}
		return "interface " + types.TypeString(u, nil)
	default:
		return types.TypeString(t, nil)
	}
}

// isSimSynchronized reports whether t is one of the simulator types that are
// safe to share without a SharedState declaration: sim.Link (the scheduler
// unions link endpoints through the port interfaces) and sim.Stats (plain
// counters whose Add is commutative, so tick order cannot leak into
// results).
func isSimSynchronized(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/sim") {
		return false
	}
	return obj.Name() == "Link" || obj.Name() == "Stats"
}

// sharedStateMentions returns the set of receiver field names read by the
// component's SharedState method, or nil when the component does not
// implement StateSharer. Mentioning a field in SharedState is what hands it
// to the scheduler.
func sharedStateMentions(pass *Pass, named *types.Named) map[string]bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "SharedState" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if receiverNamed(pass, fd) != named {
				continue
			}
			recvObj := receiverObject(pass, fd)
			mentions := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recvObj && recvObj != nil {
					mentions[sel.Sel.Name] = true
				}
				return true
			})
			return mentions
		}
	}
	return nil
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

// receiverObject resolves the receiver variable of a method, or nil for an
// anonymous receiver.
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}
