package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aurochs/internal/analysis"
)

// TestAnalyzersFor pins the directory classification: the cycle-level core
// gets the full determinism set plus contract analyzers, other internal
// packages keep the contract analyzers with print hygiene only, and the
// bench harness and non-internal directories are skipped.
func TestAnalyzersFor(t *testing.T) {
	cases := []struct {
		rel   string
		opt   vetOptions
		n     int
		first string
		last  string
	}{
		{"internal/sim", vetOptions{}, 3, "determinism", "orderdep"},
		{"internal/fabric", vetOptions{}, 3, "determinism", "orderdep"},
		{"internal/core", vetOptions{}, 3, "determinism", "orderdep"},
		{"internal/blueprint", vetOptions{}, 3, "determinism", "orderdep"},
		{"internal/bench", vetOptions{}, 0, "", ""},
		{"cmd/aurochs-vet", vetOptions{}, 0, "", ""},
		{".", vetOptions{}, 0, "", ""},
		// The engine scope grows the optional prover; packages outside it
		// (blueprint, dram) never do.
		{"internal/sim", vetOptions{Allocs: true}, 4, "determinism", "hotalloc"},
		{"internal/ring", vetOptions{Allocs: true}, 4, "determinism", "hotalloc"},
		{"internal/core", vetOptions{Allocs: true}, 4, "determinism", "hotalloc"},
		{"internal/blueprint", vetOptions{Allocs: true}, 3, "determinism", "orderdep"},
		{"internal/dram", vetOptions{Allocs: true}, 3, "determinism", "orderdep"},
		// Explicitly named fixture packages run the optional prover so the
		// CI negative gates exercise the real analyzer path.
		{"internal/analysis/testdata/src/allocbad", vetOptions{Allocs: true}, 4, "determinism", "hotalloc"},
		{"internal/analysis/testdata/src/detbad", vetOptions{}, 3, "determinism", "orderdep"},
	}
	for _, tc := range cases {
		as := analyzersFor(tc.rel, tc.opt)
		if len(as) != tc.n {
			t.Errorf("analyzersFor(%q, %+v) = %d analyzers, want %d", tc.rel, tc.opt, len(as), tc.n)
			continue
		}
		if tc.n > 0 && as[0].Name != tc.first {
			t.Errorf("analyzersFor(%q, %+v)[0] = %s, want %s", tc.rel, tc.opt, as[0].Name, tc.first)
		}
		if tc.n > 0 && as[len(as)-1].Name != tc.last {
			t.Errorf("analyzersFor(%q, %+v)[last] = %s, want %s", tc.rel, tc.opt, as[len(as)-1].Name, tc.last)
		}
	}
	// Only the cycle-level core and named fixtures get the full determinism
	// rule set; other internal packages get print hygiene.
	for rel, want := range map[string]*analysis.Analyzer{
		"internal/sim":                          analysis.Determinism,
		"internal/analysis/testdata/src/detbad": analysis.Determinism,
		"internal/core":                         analysis.PrintHygiene,
		"internal/blueprint":                    analysis.PrintHygiene,
	} {
		if got := analyzersFor(rel, vetOptions{})[0]; got != want {
			t.Errorf("analyzersFor(%q)[0] is the wrong determinism rule set", rel)
		}
	}
}

// TestVetGraphsClean runs the -graphs path end to end: every registered
// blueprint must come through the prover with zero hard findings in every
// mode, including the full -schemas gate. The explicitly waived
// CAS/publish effects surface as Waived findings — reported for review,
// never a failure.
func TestVetGraphsClean(t *testing.T) {
	for _, opt := range []graphOptions{
		{},
		{Schemas: true},
	} {
		fs, err := vetGraphs(opt)
		if err != nil {
			t.Fatal(err)
		}
		sawWaived := false
		for _, f := range fs {
			if !f.Waived {
				t.Errorf("%+v: hard finding on a clean registry: %v", opt, f)
			}
			if f.Analyzer != "graphs" && f.Analyzer != "flow" {
				t.Errorf("graph finding missing analyzer attribution: %+v", f)
			}
			sawWaived = true
		}
		if !sawWaived {
			t.Errorf("%+v: expected the registry's waived order-dependent effects to be reported", opt)
		}
	}
}

// TestVetGraphsFixtures pins the -fixture mode: the wedging fixture must
// produce hard error findings attributed to the flow analyzer, and the
// clean fixture none at all.
func TestVetGraphsFixtures(t *testing.T) {
	fs, err := vetGraphs(graphOptions{Fixture: "flowbad"})
	if err != nil {
		t.Fatal(err)
	}
	hard := 0
	for _, f := range fs {
		if !f.IsError() {
			continue
		}
		hard++
		if f.Analyzer != "flow" {
			t.Errorf("flowbad finding not attributed to the flow analyzer: %+v", f)
		}
		if f.File != "fixture:flowbad" {
			t.Errorf("flowbad finding file = %q, want fixture:flowbad", f.File)
		}
	}
	if hard == 0 {
		t.Error("the flowbad fixture produced no hard findings")
	}

	fs, err = vetGraphs(graphOptions{Fixture: "flowclean"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.IsError() {
			t.Errorf("hard finding on the flowclean fixture: %+v", f)
		}
	}

	if _, err := vetGraphs(graphOptions{Fixture: "nope"}); err == nil {
		t.Error("unknown fixture name accepted")
	}
}

// TestCensusLine pins the stderr census: every enabled family appears with
// its count, zeros included.
func TestCensusLine(t *testing.T) {
	fams := enabledFamilies(vetOptions{Allocs: true}, true, true)
	want := []string{"determinism", "tickpurity", "orderdep", "hotalloc", "graphs", "flow"}
	if len(fams) != len(want) {
		t.Fatalf("enabledFamilies = %v, want %v", fams, want)
	}
	for i := range fams {
		if fams[i] != want[i] {
			t.Fatalf("enabledFamilies = %v, want %v", fams, want)
		}
	}
	got := censusLine(fams, []analysis.Finding{
		{Analyzer: "flow"}, {Analyzer: "flow"}, {Analyzer: "orderdep"},
	})
	const wantLine = "determinism 0, tickpurity 0, orderdep 1, hotalloc 0, graphs 0, flow 2"
	if got != wantLine {
		t.Fatalf("censusLine = %q, want %q", got, wantLine)
	}
	// Graph-only mode (-fixture): package families drop out entirely.
	if got := censusLine(enabledFamilies(vetOptions{}, true, false), nil); got != "graphs 0, flow 0" {
		t.Fatalf("graph-only censusLine = %q", got)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestJSONGolden pins the complete -json output contract — analyzer name
// and waiver status on every diagnostic, both for source-level findings
// (the orderbad fixture) and graph-level findings (the -schemas prover on
// the shipped registry, whose waived effects must carry waived=true).
// Regenerate with: go test ./cmd/aurochs-vet -run TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	fixtures := []string{
		filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "orderbad"),
		filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "allocbad"),
	}
	src, err := vetPackages(fixtures, vetOptions{Allocs: true})
	if err != nil {
		t.Fatal(err)
	}
	graph, err := vetGraphs(graphOptions{Schemas: true})
	if err != nil {
		t.Fatal(err)
	}
	flowbad, err := vetGraphs(graphOptions{Fixture: "flowbad"})
	if err != nil {
		t.Fatal(err)
	}
	all := append(src, graph...)
	all = append(all, flowbad...)
	analysis.SortFindings(all)
	for _, f := range all {
		if f.Analyzer == "" {
			t.Errorf("finding without analyzer attribution: %+v", f)
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "findings.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from golden file %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}

	// The golden file itself must decode and keep the waiver split: the
	// orderbad fixture contributes hard findings, the registry contributes
	// waived ones.
	var decoded []analysis.Finding
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	hard, waived := 0, 0
	for _, f := range decoded {
		if f.Waived {
			waived++
		} else {
			hard++
		}
	}
	if hard == 0 || waived == 0 {
		t.Errorf("golden file lost its hard/waived split: %d hard, %d waived", hard, waived)
	}
}
