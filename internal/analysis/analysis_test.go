package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func runAnalyzers(t *testing.T, pkg *Package, as ...*Analyzer) []Finding {
	t.Helper()
	fs, err := Run([]*Package{pkg}, as)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

// TestPurityBadFixture: the three impure observation methods are each
// caught, and the messages name the method.
func TestPurityBadFixture(t *testing.T) {
	fs := runAnalyzers(t, loadFixture(t, "puritybad"), TickPurity)
	if got := countRule(fs, "tickpurity"); got != 3 || len(fs) != 3 {
		t.Errorf("want exactly 3 tickpurity findings, got:\n%v", fs)
	}
	for _, m := range []string{"Walker.Done", "Walker.Idle", "Walker.CanPush"} {
		found := false
		for _, f := range fs {
			found = found || strings.Contains(f.Msg, m)
		}
		if !found {
			t.Errorf("no finding names %s:\n%v", m, fs)
		}
	}
}

// TestPurityCleanFixture: link observations, field reads, pure helpers and
// the tickpure waiver produce no findings.
func TestPurityCleanFixture(t *testing.T) {
	if fs := runAnalyzers(t, loadFixture(t, "purityclean"), TickPurity); len(fs) != 0 {
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

// TestDetBadFixture: the fixture violates each determinism rule a known
// number of times — maprange included over a call result and a named map
// type, which only the expression's type reveals.
func TestDetBadFixture(t *testing.T) {
	fs := runAnalyzers(t, loadFixture(t, "detbad"), Determinism)
	want := map[string]int{
		"wallclock":  2, // time.Now, time.Since
		"globalrand": 3, // rand.Shuffle, rand.Intn, mrand.Int (aliased)
		// direct, selector, closure not laundered by an outer sort, call
		// result, named map type
		"maprange": 5,
		"print":    2, // Println, Printf
	}
	for rule, n := range want {
		if got := countRule(fs, rule); got != n {
			t.Errorf("%s: got %d findings, want %d\n%v", rule, got, n, fs)
		}
	}
	if len(fs) != 12 {
		t.Errorf("got %d findings, want 12:\n%v", len(fs), fs)
	}
	for _, f := range fs {
		if f.Analyzer != "determinism" {
			t.Errorf("finding not attributed to determinism: %v", f)
		}
	}
}

// TestDeterminismAdapter: the determinism rules report identically through
// the driver when it runs them alongside every other analyzer — one Run
// over the fixture yields exactly the findings Determinism yields alone.
func TestDeterminismAdapter(t *testing.T) {
	pkg := loadFixture(t, "detbad")
	alone := runAnalyzers(t, pkg, Determinism)
	mixed := runAnalyzers(t, pkg, TickPurity, Orderdep, Hotalloc, Determinism)
	var got []Finding
	for _, f := range mixed {
		if f.Analyzer == "determinism" {
			got = append(got, f)
		}
	}
	if len(alone) == 0 {
		t.Fatal("Determinism reported nothing on the bad fixture")
	}
	if len(got) != len(alone) {
		t.Fatalf("determinism findings: got %d mixed, %d alone\nmixed: %v\nalone: %v", len(got), len(alone), got, alone)
	}
	for i := range alone {
		if got[i] != alone[i] {
			t.Errorf("finding %d differs: mixed %v, alone %v", i, got[i], alone[i])
		}
	}
}

// TestDetCleanFixture: sanctioned idioms — collect-then-sort, the maprange
// waiver, seeded rand, fmt.Sprintf/Errorf, slice and array ranges — produce
// no findings.
func TestDetCleanFixture(t *testing.T) {
	if fs := runAnalyzers(t, loadFixture(t, "detclean"), Determinism); len(fs) != 0 {
		t.Errorf("clean fixture flagged:\n%v", fs)
	}
}

// TestPrintHygieneIsPrintOnly: the rule set for non-cycle-level packages
// reports only the print rule.
func TestPrintHygieneIsPrintOnly(t *testing.T) {
	fs := runAnalyzers(t, loadFixture(t, "detbad"), PrintHygiene)
	if got := countRule(fs, "print"); got != 2 || len(fs) != 2 {
		t.Errorf("want exactly 2 print findings, got:\n%v", fs)
	}
}

// TestFindingsAreOrderedAndSerializable: output is sorted by (file, line,
// rule) and round-trips through JSON with stable field names.
func TestFindingsAreOrderedAndSerializable(t *testing.T) {
	fs := runAnalyzers(t, loadFixture(t, "detbad"), Determinism)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings out of order at %d: %v then %v", i, a, b)
		}
	}
	blob, err := json.Marshal(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"file", "line", "rule", "msg"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON output missing %q: %s", key, blob)
		}
	}
}

// TestLoadRejectsUnparseableSource: a package that does not parse is a
// load error, not a silent pass.
func TestLoadRejectsUnparseableSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\nfunc ("), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLoader().Load(dir, "broken"); err == nil {
		t.Error("want a parse error")
	}
}

// TestSortFindingsAcrossAnalyzers pins the shared ordering contract on the
// mixed streams aurochs-vet emits: graph-level findings (line 0, synthetic
// "graph:"/"fixture:" files) from the graphs and flow analyzers interleave
// with source findings, and the (file, line, analyzer, rule) key must put
// a file's flow-* findings in a stable, rule-sorted block. Stability
// matters: distinct messages sharing a key keep their insertion order.
func TestSortFindingsAcrossAnalyzers(t *testing.T) {
	fs := []Finding{
		{File: "internal/sim/sim.go", Line: 10, Analyzer: "determinism", Rule: "wallclock"},
		{File: "graph:streamjoin", Line: 0, Analyzer: "graphs", Rule: "order-dependent"},
		{File: "fixture:flowbad", Line: 0, Analyzer: "flow", Rule: "flow-no-exit", Msg: "second"},
		{File: "fixture:flowbad", Line: 0, Analyzer: "flow", Rule: "flow-entry-miswired"},
		{File: "fixture:flowbad", Line: 0, Analyzer: "flow", Rule: "flow-no-exit", Msg: "first"},
		{File: "graph:streamjoin", Line: 0, Analyzer: "flow", Rule: "flow-uncounted-exit"},
	}
	SortFindings(fs)
	want := []struct {
		file, analyzer, rule, msg string
	}{
		{"fixture:flowbad", "flow", "flow-entry-miswired", ""},
		{"fixture:flowbad", "flow", "flow-no-exit", "second"},
		{"fixture:flowbad", "flow", "flow-no-exit", "first"},
		{"graph:streamjoin", "flow", "flow-uncounted-exit", ""},
		{"graph:streamjoin", "graphs", "order-dependent", ""},
		{"internal/sim/sim.go", "determinism", "wallclock", ""},
	}
	for i, w := range want {
		f := fs[i]
		if f.File != w.file || f.Analyzer != w.analyzer || f.Rule != w.rule || f.Msg != w.msg {
			t.Fatalf("fs[%d] = %s/%s/%s/%q, want %s/%s/%s/%q",
				i, f.File, f.Analyzer, f.Rule, f.Msg, w.file, w.analyzer, w.rule, w.msg)
		}
	}
}

// TestRepoComponentsAreClean: the shipped simulator packages satisfy the
// tickpurity and orderdep contracts — this is the in-repo half of the CI
// gate. An impure observation method flagged here would make idle-skip
// runs diverge from the polling reference.
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
		if fs := runAnalyzers(t, pkg, TickPurity, Orderdep); len(fs) != 0 {
			t.Errorf("internal/%s has contract findings:\n%v", dir, fs)
		}
	}
}
