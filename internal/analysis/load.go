package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package directory.
type Package struct {
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file in the loader's shared set.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by name.
	Files []*ast.File
	// Types and Info are nil when type checking failed; TypeError then says
	// why, and the driver reports it instead of running analyzers.
	Types     *types.Package
	Info      *types.Info
	TypeError error
}

// Loader parses and type-checks package directories. One loader shares a
// file set and an importer across packages, so the (source-level) import
// graph — including the standard library — is checked once, not once per
// package. Type checking runs entirely from source: the container carries
// no compiled export data and no module proxy, and the simulator's own
// packages resolve through the module-aware build context.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader with a fresh file set and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's shared file set.
func (ld *Loader) Fset() *token.FileSet { return ld.fset }

// Load parses the non-test .go files directly in dir and type-checks them
// as one package. Parse errors fail the load (the tree is expected to
// build); type-check errors are recorded on the package for the driver to
// report. importPath is used only for error messages and may be the
// directory itself.
func (ld *Loader) Load(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	pkg := &Package{Dir: dir, Fset: ld.fset}
	for _, n := range names {
		path := filepath.Join(dir, n)
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return pkg, nil
	}
	if importPath == "" {
		importPath = dir
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld.imp}
	tpkg, err := conf.Check(importPath, ld.fset, pkg.Files, info)
	if err != nil {
		pkg.TypeError = err
		return pkg, nil
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}
