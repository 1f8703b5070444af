package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The determinism rules. Runs must be bit-reproducible, and registered
// links make tick order unobservable, so nondeterminism can only creep in
// through what Go hands out for free. Callees resolve through go/types
// (package-level functions only, so aliases are seen through and methods
// on a seeded *rand.Rand never match):
//
//   - wallclock: time.Now / time.Since / friends — simulated time is the
//     cycle counter;
//   - globalrand: package-level math/rand calls; rand.New(rand.NewSource(
//     seed)) generators are fine;
//   - maprange: a range over an expression of map type — variable, field,
//     call result, named map type — unless the innermost enclosing
//     function (declaration or literal) calls into package sort after the
//     loop (collect-then-sort, as in sim.Stats.Names), or the loop carries
//     a MaprangeWaiver comment asserting an order-independent reduction.
//     Innermost scoping cuts both ways: a closure's own sort sanctions its
//     loop, and a sort in a sibling closure does not;
//   - print: fmt.Print / Println / Printf — reporting belongs to cmd/ and
//     internal/bench, not the model.
var (
	// Determinism runs every rule, for the cycle-level packages.
	Determinism = determinism(true)
	// PrintHygiene runs only the print rule, for other library packages.
	PrintHygiene = determinism(false)
)

// MaprangeWaiver is the comment marker that suppresses the maprange rule on
// the loop it annotates.
const MaprangeWaiver = "lint:maprange-ok"

// wallClockFuncs are the time package entry points that read the host clock
// (or schedule against it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// randAllowed are the math/rand package functions that construct seeded
// generators rather than consuming the global one.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// printFuncs are the fmt entry points that write to stdout.
var printFuncs = map[string]bool{"Print": true, "Println": true, "Printf": true}

func determinism(all bool) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "wallclock/globalrand/maprange/print: no host clock, global rand, unsorted map order, or stdout in the model",
		Run:  func(pass *Pass) error { runDeterminism(pass, all); return nil },
	}
}

// pkgFunc resolves a call to the package-level function it names, or nil
// (methods, function values, builtins, conversions).
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

func runDeterminism(pass *Pass, all bool) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		var scopes []*ast.BlockStmt // function bodies, for the sort sanction
		var sorts []token.Pos
		var ranges []*ast.RangeStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scopes = append(scopes, n.Body)
				}
			case *ast.FuncLit:
				scopes = append(scopes, n.Body)
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						ranges = append(ranges, n)
					}
				}
			case *ast.CallExpr:
				fn := pkgFunc(info, n)
				if fn == nil {
					return true
				}
				name := fn.Name()
				switch fn.Pkg().Path() {
				case "sort":
					sorts = append(sorts, n.Pos())
				case "time":
					if all && wallClockFuncs[name] {
						pass.report(n.Pos(), "wallclock", "",
							"time.%s reads the host clock; cycle-level code must derive time from the cycle counter", name)
					}
				case "math/rand", "math/rand/v2":
					if all && !randAllowed[name] {
						pass.report(n.Pos(), "globalrand", "",
							"global rand.%s is seeded per-process; use rand.New(rand.NewSource(seed)) for reproducible runs", name)
					}
				case "fmt":
					if printFuncs[name] {
						pass.report(n.Pos(), "print", "",
							"fmt.%s in a library package; reporting belongs to cmd/ or internal/bench", name)
					}
				}
			}
			return true
		})
		if !all {
			continue
		}
		// innermost returns the smallest function body containing p, or nil
		// at package level.
		innermost := func(p token.Pos) *ast.BlockStmt {
			var best *ast.BlockStmt
			for _, b := range scopes {
				if b.Pos() <= p && p < b.End() && (best == nil || b.End()-b.Pos() < best.End()-best.Pos()) {
					best = b
				}
			}
			return best
		}
	next:
		for _, rs := range ranges {
			if pass.Waived(rs.Pos(), MaprangeWaiver) {
				continue
			}
			scope := innermost(rs.Pos())
			for _, sp := range sorts {
				if sp >= rs.Pos() && innermost(sp) == scope {
					continue next // collect-then-sort: order cannot escape
				}
			}
			pass.report(rs.Pos(), "maprange", "",
				"map iteration order is randomized; sort the keys first, or mark an order-independent reduction with a lint:maprange-ok comment")
		}
	}
}
