package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// OrderdepWaiver suppresses the orderdep rule on the spad.Spec literal it
// annotates, asserting the kernel's protocol makes the update order
// unobservable (e.g. a CAS retry loop whose every interleaving converges).
const OrderdepWaiver = "lint:orderdep-ok"

// Orderdep is the source-level half of the reorder-safety prover: every
// spad.Spec composite literal must be statically classifiable as safe under
// the architecture's undefined-thread-order contract (paper §II — the
// reordering pipelines of the scratchpad and DRAM nodes retire threads in
// completion order, not arrival order).
//
// The classification mirrors spad.Op.Commutativity():
//
//   - OpRead (the zero value) and OpFAA are order-insensitive and always
//     pass;
//   - OpModify passes only when the literal declares a Combiner — a named
//     CombineFn carrying its own commutativity class — instead of a raw
//     Modify closure the checker cannot see into;
//   - OpWrite, OpCAS and OpXCHG are order-dependent (last-writer-wins or
//     observed-value semantics) and must carry one of: DisjointAddrs: true
//     (no two in-flight threads touch the same address, so order cannot
//     matter), a non-empty OrderWaiver string (the runtime check surfaces
//     it in proof reports), or a "lint:orderdep-ok" comment on the literal.
//
// The rule is deliberately syntactic about the escape hatches: the point is
// that every order-dependent RMW in the tree carries a reviewable
// justification at the site that declares it.
var Orderdep = &Analyzer{
	Name: "orderdep",
	Doc:  "order-dependent spad.Spec RMWs must declare a commutative combiner, disjoint addresses, or a waiver",
	Run:  runOrderdep,
}

func runOrderdep(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok || !isSpadSpec(tv.Type) {
				return true
			}
			checkSpecLit(pass, cl)
			return true
		})
	}
	return nil
}

// isSpadSpec matches the spad.Spec named type by package-path suffix, so
// the analyzer works from any importing package without linking spad.
func isSpadSpec(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Spec" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/spad")
}

// checkSpecLit applies the classification to one Spec literal.
func checkSpecLit(pass *Pass, cl *ast.CompositeLit) {
	op := "OpRead" // zero value of spad.Op
	hasCombiner, hasDisjoint, hasWaiverField := false, false, false
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Op":
			if name := constName(pass, kv.Value); name != "" {
				op = name
			}
		case "Combiner":
			hasCombiner = !isNilExpr(kv.Value)
		case "DisjointAddrs":
			if id, ok := kv.Value.(*ast.Ident); ok && id.Name == "true" {
				hasDisjoint = true
			}
		case "OrderWaiver":
			hasWaiverField = !isEmptyString(pass, kv.Value)
		}
	}
	switch op {
	case "OpRead", "OpFAA":
		return // pure / commutative
	case "OpModify":
		if hasCombiner {
			return // classification travels with the named CombineFn
		}
	}
	if hasDisjoint || hasWaiverField {
		return
	}
	if pass.Waived(cl.Pos(), OrderdepWaiver) {
		return
	}
	hint := "declare DisjointAddrs: true, set a non-empty OrderWaiver, or add a " + OrderdepWaiver + " comment"
	if op == "OpModify" {
		hint = "declare a Combiner (a named spad.CombineFn with its commutativity class) instead of a raw Modify closure, or " + hint
	}
	pass.Reportf(cl.Pos(),
		"spad.Spec with %s is order-dependent: under the undefined-thread-order contract its result varies with retirement order; %s",
		op, hint)
}

// constName resolves the identifier or selector naming a constant, e.g.
// spad.OpWrite -> "OpWrite".
func constName(pass *Pass, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isEmptyString reports whether e is a constant empty string; a non-constant
// expression counts as non-empty (the author supplied something).
func isEmptyString(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == `""`
}
