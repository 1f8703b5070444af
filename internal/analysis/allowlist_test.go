package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestAllowlistKeysResolve: every knownAllocFree and knownPureCalls key
// names a function or method declared in the tree (or the standard
// library). A key left behind by deleted or renamed code would silently
// exempt whatever later takes its name.
func TestAllowlistKeysResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the listed packages; skipped in -short")
	}
	ld := NewLoader()
	pkgs := make(map[string]*types.Package)
	lookup := func(path string) *types.Package {
		if p, ok := pkgs[path]; ok {
			return p
		}
		importPath := path
		if strings.HasPrefix(path, "internal/") {
			importPath = "aurochs/" + path
		}
		p, err := ld.imp.Import(importPath)
		if err != nil {
			t.Fatalf("import %s: %v", importPath, err)
		}
		pkgs[path] = p
		return p
	}
	for _, list := range []struct {
		name string
		keys map[string]bool
	}{{"knownAllocFree", knownAllocFree}, {"knownPureCalls", knownPureCalls}} {
		keys := make([]string, 0, len(list.keys))
		for k := range list.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if !allowlistKeyResolves(lookup, key) {
				t.Errorf("%s lists %q, which names no declared function or method", list.name, key)
			}
		}
	}
}

// allowlistKeyResolves reports whether a calleeKey-shaped key
// ("pkgPathSuffix.Func" or "pkgPathSuffix.Type.Method") names a declared
// function or method.
func allowlistKeyResolves(lookup func(string) *types.Package, key string) bool {
	path, name, ok := strings.Cut(key, ".")
	if !ok {
		return false
	}
	scope := lookup(path).Scope()
	typeName, method, isMethod := strings.Cut(name, ".")
	if !isMethod {
		_, isFunc := scope.Lookup(name).(*types.Func)
		return isFunc
	}
	tn, ok := scope.Lookup(typeName).(*types.TypeName)
	if !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, tn.Pkg(), method)
	_, isFunc := obj.(*types.Func)
	return isFunc
}
