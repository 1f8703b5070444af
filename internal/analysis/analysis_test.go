package analysis

import (
	"path/filepath"
	"strings"
	"testing"

	"aurochs/internal/lint"
)

// loadFixture loads one testdata package through the real loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	ld := NewLoader()
	pkg, err := ld.Load(filepath.Join("testdata", "src", name), name)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.TypeError != nil {
		t.Fatalf("fixture %s failed to type-check: %v", name, pkg.TypeError)
	}
	return pkg
}

func runAnalyzers(t *testing.T, pkg *Package, as ...*Analyzer) []lint.Finding {
	t.Helper()
	fs, err := Run([]*Package{pkg}, as)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func countRule(fs []lint.Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

// TestSharedBadFixture: the seeded violations are each caught — two
// undeclared shared references and three impure observation methods.
func TestSharedBadFixture(t *testing.T) {
	pkg := loadFixture(t, "sharedbad")
	fs := runAnalyzers(t, pkg, SharedState, TickPurity)
	if got := countRule(fs, "sharedstate"); got != 2 {
		t.Errorf("sharedstate: got %d findings, want 2\n%v", got, fs)
	}
	if got := countRule(fs, "tickpurity"); got != 3 {
		t.Errorf("tickpurity: got %d findings, want 3\n%v", got, fs)
	}
	// The messages must name the field and the remedy.
	var sawTbl, sawLog, sawIdle bool
	for _, f := range fs {
		if f.Rule == "sharedstate" && strings.Contains(f.Msg, "field tbl") {
			sawTbl = true
		}
		if f.Rule == "sharedstate" && strings.Contains(f.Msg, "field log") {
			sawLog = true
		}
		if f.Rule == "tickpurity" && strings.Contains(f.Msg, "Walker.Idle") {
			sawIdle = true
		}
	}
	if !sawTbl || !sawLog || !sawIdle {
		t.Errorf("missing expected findings (tbl=%v log=%v idle=%v):\n%v", sawTbl, sawLog, sawIdle, fs)
	}
}

// TestSharedCleanFixture: declared sharing, waivers, owned references, link
// fields, and pure helpers produce no findings.
func TestSharedCleanFixture(t *testing.T) {
	pkg := loadFixture(t, "sharedclean")
	if fs := runAnalyzers(t, pkg, SharedState, TickPurity); len(fs) != 0 {
		t.Errorf("clean fixture flagged:\n%v", fs)
	}
}

// TestOrderBadFixture: each seeded order-dependent Spec literal is caught —
// a bare write, a raw Modify closure, an unwaived CAS, and an empty-string
// waiver — and the messages carry the remedy.
func TestOrderBadFixture(t *testing.T) {
	pkg := loadFixture(t, "orderbad")
	fs := runAnalyzers(t, pkg, Orderdep)
	if got := countRule(fs, "orderdep"); got != 4 {
		t.Fatalf("orderdep: got %d findings, want 4\n%v", got, fs)
	}
	var sawWrite, sawModify, sawAnalyzer bool
	for _, f := range fs {
		if strings.Contains(f.Msg, "OpWrite") {
			sawWrite = true
		}
		if strings.Contains(f.Msg, "OpModify") && strings.Contains(f.Msg, "Combiner") {
			sawModify = true
		}
		if f.Analyzer == "orderdep" {
			sawAnalyzer = true
		}
	}
	if !sawWrite || !sawModify || !sawAnalyzer {
		t.Errorf("missing expected findings (write=%v modify=%v analyzer=%v):\n%v",
			sawWrite, sawModify, sawAnalyzer, fs)
	}
}

// TestOrderCleanFixture: every sanctioned escape — pure read, FAA, disjoint
// addresses, a declared combiner, a non-empty waiver field, and a comment
// waiver — passes without findings.
func TestOrderCleanFixture(t *testing.T) {
	pkg := loadFixture(t, "orderclean")
	if fs := runAnalyzers(t, pkg, Orderdep); len(fs) != 0 {
		t.Errorf("clean fixture flagged:\n%v", fs)
	}
}

// TestWakeBadFixture: every unsanctioned mutation of wake-relevant state is
// caught — the plain setter, the termination flip, and the registered
// closure — and each message names the field it writes.
func TestWakeBadFixture(t *testing.T) {
	pkg := loadFixture(t, "wakebad")
	fs := runAnalyzers(t, pkg, Wakeprop)
	if got := countRule(fs, "wakeprop"); got != 3 {
		t.Fatalf("wakeprop: got %d findings, want 3\n%v", got, fs)
	}
	var sawInject, sawFinish, sawClosure bool
	for _, f := range fs {
		if strings.Contains(f.Msg, "Inject") && strings.Contains(f.Msg, "pending") {
			sawInject = true
		}
		if strings.Contains(f.Msg, "Finish") && strings.Contains(f.Msg, "eos") {
			sawFinish = true
		}
		if strings.Contains(f.Msg, "closure") && strings.Contains(f.Msg, "pending") {
			sawClosure = true
		}
	}
	if !sawInject || !sawFinish || !sawClosure {
		t.Errorf("missing expected findings (inject=%v finish=%v closure=%v):\n%v",
			sawInject, sawFinish, sawClosure, fs)
	}
}

// TestWakeCleanFixture: every discharge rule — tick-reachable helpers,
// builder chaining, link notification on the mutation path, the decl-level
// waiver, and the StateSharer closure rule — passes without findings.
func TestWakeCleanFixture(t *testing.T) {
	pkg := loadFixture(t, "wakeclean")
	if fs := runAnalyzers(t, pkg, Wakeprop); len(fs) != 0 {
		t.Errorf("clean fixture flagged:\n%v", fs)
	}
}

// TestAllocBadFixture: every class of hidden allocation on the hot path is
// caught — append growth, map writes, make, escaping composites, closure
// cells, interface boxing, fmt, and string concatenation — and so is the
// hidden copy of a flit-sized value receiver.
func TestAllocBadFixture(t *testing.T) {
	pkg := loadFixture(t, "allocbad")
	fs := runAnalyzers(t, pkg, Hotalloc)
	if got := countRule(fs, "hotalloc"); got != 9 {
		t.Fatalf("hotalloc: got %d findings, want 9\n%v", got, fs)
	}
	for _, want := range []string{
		"append", "map", "make", "composite", "closure", "interface", "fmt", "concat", "hot-copy",
	} {
		found := false
		for _, f := range fs {
			if strings.Contains(f.Msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding mentions %q:\n%v", want, fs)
		}
	}
}

// TestAllocCleanFixture: the audited allocation-free surface — link and ring
// ops, fixed-size records, in-place filtering, shrinking appends, cold panic
// arguments, and a reviewed amortization waiver — passes without findings.
func TestAllocCleanFixture(t *testing.T) {
	pkg := loadFixture(t, "allocclean")
	if fs := runAnalyzers(t, pkg, Hotalloc); len(fs) != 0 {
		t.Errorf("clean fixture flagged:\n%v", fs)
	}
}

// TestDeterminismAdapter: the folded PR-1 rules report identically through
// the driver — counts match the lint package's own fixture expectations.
func TestDeterminismAdapter(t *testing.T) {
	ld := NewLoader()
	pkg, err := ld.Load(filepath.Join("..", "lint", "testdata", "src", "bad"), "bad")
	if err != nil {
		t.Fatal(err)
	}
	fs := runAnalyzers(t, pkg, Determinism)
	want := map[string]int{"wallclock": 2, "globalrand": 3, "maprange": 3, "print": 2}
	for rule, n := range want {
		if got := countRule(fs, rule); got != n {
			t.Errorf("%s: got %d findings, want %d\n%v", rule, got, n, fs)
		}
	}
}

// TestRepoComponentsAreClean: the shipped simulator packages satisfy both
// contracts — this is the in-repo half of the CI gate. Everything flagged
// here would be a real hole in the wake scheduler's safety argument.
func TestRepoComponentsAreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks half the module; skipped in -short")
	}
	ld := NewLoader()
	for _, dir := range []string{"sim", "fabric", "spad", "dram", "core"} {
		pkg, err := ld.Load(filepath.Join("..", dir), "aurochs/internal/"+dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if pkg.TypeError != nil {
			t.Fatalf("%s failed to type-check: %v", dir, pkg.TypeError)
		}
		if fs := runAnalyzers(t, pkg, SharedState, TickPurity, Orderdep); len(fs) != 0 {
			t.Errorf("internal/%s has contract findings:\n%v", dir, fs)
		}
	}
}
