// aurochs-vet statically verifies the repository's simulation contracts.
// It runs the type-checked analyzers from internal/analysis over the
// source tree and — with -graphs — the flow-control prover from
// internal/fabric over every registered kernel topology.
//
// Usage:
//
//	go run ./cmd/aurochs-vet [-json] [-all] [-graphs] [-schemas] [-fixture name] [-allocs] [packages]
//
// Packages default to ./... — directories are classified by path:
//
//   - internal/sim, internal/fabric, internal/spad, internal/dram (the
//     cycle-level core) get the full determinism rule set (wallclock,
//     globalrand, maprange, print) plus the tickpurity contract analyzer;
//   - other internal packages get print hygiene plus tickpurity —
//     components are defined outside the core too (kernels in
//     internal/core), and tickpurity is a no-op on packages without
//     components;
//   - internal/bench is exempt (it is the reporting harness — printing is
//     its job), as are cmd/ and testdata;
//   - a fixture package under testdata/src/, named explicitly (recursive
//     expansion skips testdata), gets the full set, so the CI negative
//     gates exercise every rule.
//
// -graphs additionally builds every blueprint in internal/blueprint and
// runs fabric.Graph.Prove on it, which includes the token-flow abstract
// interpreter (internal/analysis/flow): every link must sustain line rate
// and every cycle must prove credit sufficiency, deadlock freedom and
// drain completeness, and the graph gets a static occupancy bound.
// Structural diagnostics and unproven obligations are reported as findings
// with File set to "graph:<name>"; flow-* rules are attributed to the
// "flow" analyzer and, in the blueprint report, most carry a replayable
// wedge witness (see DESIGN.md §12). -schemas upgrades that to the strict
// prover (fabric.ProveOptions.RequireSchemas): every link must be
// schema-typed at both ends, and explicitly waived order-dependent effects
// are reported with "waived": true — visible in the JSON stream, but not a
// failure. -fixture <name> restricts the graph analyzers to one entry of
// the blueprint *fixture* registry (skipping package vetting entirely): CI
// points it at the deliberately wedging "flowbad" fixture to prove the
// flow gate still rejects, and at "flowclean" to prove it still accepts.
//
// -allocs adds the hot-path allocation prover (hotalloc) over the engine
// packages (internal/sim, fabric, spad, ring, core) — see DESIGN.md §11.
// Reviewed sites carry lint:hotalloc-ok markers. -all enables every
// analyzer family at once (-graphs -schemas -allocs) — the CI gate, so a
// new analyzer can never be silently left out of the pipeline.
//
// Exit status is 1 when error-severity findings exist, 2 on usage or I/O
// errors; warnings and waived findings are reported without failing the
// run. The stderr census line counts findings per enabled analyzer family,
// zeros included, so a family that silently stopped reporting is visible. The dynamic half of the same contracts
// is fabric.Graph.Check, which validates graph topology at Run time,
// sim.VerifyIdleContract, which audits Idle answers in the conformance
// tests, and the AllocsPerRun gates that pin the measured hot path at zero
// allocations.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aurochs/internal/analysis"
	"aurochs/internal/analysis/flow"
	"aurochs/internal/blueprint"
	"aurochs/internal/fabric"
)

// cycleLevel lists the packages simulating hardware at cycle granularity;
// these get the full determinism rule set.
var cycleLevel = map[string]bool{
	"internal/sim":    true,
	"internal/fabric": true,
	"internal/spad":   true,
	"internal/dram":   true,
}

// exempt lists packages aurochs-vet skips entirely: the benchmark harness
// prints tables by design.
var exempt = map[string]bool{
	"internal/bench": true,
}

// engineScope lists the packages the hotalloc analyzer runs over when
// -allocs is set: the runner (sim), the component packages whose Tick and
// Idle it calls every cycle (fabric, spad, core), and the hot-path
// containers (ring). dram is reached through the fabric's hbmComponent
// adapter, whose cross-package calls surface as hotalloc warnings rather
// than silent blind spots.
var engineScope = map[string]bool{
	"internal/sim":    true,
	"internal/fabric": true,
	"internal/spad":   true,
	"internal/ring":   true,
	"internal/core":   true,
}

// vetOptions selects the optional analyzer families.
type vetOptions struct {
	// Allocs enables the static allocation prover (hotalloc) on the engine
	// scope.
	Allocs bool
}

// analyzersFor maps a module-relative directory to the analyzers it must
// pass. Returning nil skips the directory.
func analyzersFor(rel string, opt vetOptions) []*analysis.Analyzer {
	rel = filepath.ToSlash(rel)
	// Fixture packages under testdata never appear in a recursive expansion
	// (expand skips testdata); when one is named explicitly — the CI
	// negative gates — every rule must run on it.
	fixture := strings.Contains(rel, "testdata/src/")
	var det *analysis.Analyzer
	switch {
	case exempt[rel]:
		return nil
	case cycleLevel[rel] || fixture:
		det = analysis.Determinism
	case rel == "internal" || strings.HasPrefix(rel, "internal/"):
		det = analysis.PrintHygiene
	default:
		return nil
	}
	as := []*analysis.Analyzer{det, analysis.TickPurity}
	if opt.Allocs && (engineScope[rel] || fixture) {
		as = append(as, analysis.Hotalloc)
	}
	return as
}

// expand resolves package patterns to directories. "dir/..." walks the
// tree; anything else is taken as a single directory. testdata and hidden
// directories never participate.
func expand(args []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		root, recursive := arg, false
		if arg == "..." {
			root, recursive = ".", true
		} else if strings.HasSuffix(arg, "/...") {
			root, recursive = strings.TrimSuffix(arg, "/..."), true
			if root == "" {
				root = "."
			}
		}
		if !recursive {
			info, err := os.Stat(root)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				return nil, fmt.Errorf("%s is not a directory", root)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// moduleRel maps dir to its path relative to the enclosing Go module, so
// classification works from any working directory. Outside a module the
// path is returned as given.
func moduleRel(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	for root := abs; ; {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return dir
			}
			return rel
		}
		parent := filepath.Dir(root)
		if parent == root {
			return dir
		}
		root = parent
	}
}

// vetPackages loads each classified directory through one shared loader
// (so the stdlib type-checks once) and runs its analyzer set.
func vetPackages(dirs []string, opt vetOptions) ([]analysis.Finding, error) {
	ld := analysis.NewLoader()
	var all []analysis.Finding
	for _, dir := range dirs {
		rel := moduleRel(dir)
		analyzers := analyzersFor(rel, opt)
		if len(analyzers) == 0 {
			continue
		}
		importPath := "aurochs/" + filepath.ToSlash(rel)
		pkg, err := ld.Load(dir, importPath)
		if err != nil {
			return nil, err
		}
		if len(pkg.Files) == 0 {
			continue
		}
		fs, err := analysis.Run([]*analysis.Package{pkg}, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// graphOptions selects what the graph-registry vetting proves and over
// which registry.
type graphOptions struct {
	// Schemas demands every link be schema-typed at both ends (-schemas).
	Schemas bool
	// Fixture restricts vetting to one named fixture from the blueprint
	// fixture registry instead of the shipped blueprints — the CI
	// negative/positive gates on the flow prover itself.
	Fixture string
}

// vetGraphs builds every registered blueprint (or the one named fixture)
// and proves it (Graph.ProveWith). Check diagnostics and unproven
// obligations become findings, attributed to the "flow" analyzer for the
// token-flow prover's flow-* rules and to "graphs" otherwise; waived
// effects (audited CAS ordering, declared-lossy streams) are reported with
// Waived=true for reviewability but do not fail the run. A blueprint that
// fails to build is an engine error (exit 2), because the registry itself
// is then broken.
func vetGraphs(opt graphOptions) ([]analysis.Finding, error) {
	var all []analysis.Finding
	// file is "graph:<blueprint>" for registry entries and
	// "fixture:<name>" in -fixture mode.
	graphFinding := func(file string, d fabric.Diag, severity string, waived bool) analysis.Finding {
		f := analysis.Finding{File: file, Rule: string(d.Code), Msg: d.Msg,
			Analyzer: "graphs", Severity: severity, Waived: waived}
		if strings.HasPrefix(f.Rule, "flow-") {
			f.Analyzer = "flow"
		}
		return f
	}
	type target struct {
		name  string
		build func() (*fabric.Graph, error)
	}
	var targets []target
	if opt.Fixture != "" {
		fx := blueprint.FixtureByName(opt.Fixture)
		if fx == nil {
			return nil, fmt.Errorf("unknown fixture %q", opt.Fixture)
		}
		targets = []target{{"fixture:" + fx.Name, fx.Build}}
	} else {
		for _, bp := range blueprint.All() {
			targets = append(targets, target{"graph:" + bp.Name, bp.Build})
		}
	}
	for _, tg := range targets {
		g, err := tg.build()
		if err != nil {
			return nil, fmt.Errorf("blueprint %s: %w", tg.name, err)
		}
		rep, err := g.ProveWith(fabric.ProveOptions{RequireSchemas: opt.Schemas})
		if err != nil {
			var ce *fabric.CheckError
			if !errors.As(err, &ce) {
				return nil, fmt.Errorf("blueprint %s: %w", tg.name, err)
			}
			for _, d := range ce.Diags {
				all = append(all, graphFinding(tg.name, d, analysis.SevError, false))
			}
			continue
		}
		for _, d := range rep.Warnings {
			// Performance hazards (line-rate, credit starvation) let the
			// graph run correctly, just slowly, and an opaque node on a
			// cycle is an abstention, not a proof of failure: warning
			// severity. Schema obligations under -schemas and failed flow
			// obligations — each a provable runtime failure, most carrying
			// a replayable witness — are contract failures and stay errors.
			sev := analysis.SevError
			switch string(d.Code) {
			case flow.RuleLineRate, flow.RuleCreditStarved, flow.RuleOpaqueCycle:
				sev = analysis.SevWarning
			}
			all = append(all, graphFinding(tg.name, d, sev, false))
		}
		for _, d := range rep.Waived {
			all = append(all, graphFinding(tg.name, d, analysis.SevWarning, true))
		}
	}
	return all, nil
}

// enabledFamilies lists the analyzer families a flag combination turns on,
// in census order. Every enabled family appears in the stderr census even
// at zero findings, so a silently dead analyzer is visible.
func enabledFamilies(opt vetOptions, graphsOn, packagesOn bool) []string {
	var fams []string
	if packagesOn {
		fams = append(fams, "determinism", "tickpurity")
		if opt.Allocs {
			fams = append(fams, "hotalloc")
		}
	}
	if graphsOn {
		fams = append(fams, "graphs", "flow")
	}
	return fams
}

// censusLine renders the per-family finding counts for stderr: one entry
// per enabled analyzer family, zeros included.
func censusLine(families []string, findings []analysis.Finding) string {
	counts := make(map[string]int, len(families))
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	parts := make([]string, len(families))
	for i, fam := range families {
		parts[i] = fmt.Sprintf("%s %d", fam, counts[fam])
	}
	return strings.Join(parts, ", ")
}

func run() (int, error) {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	graphs := flag.Bool("graphs", false, "also prove flow control (line rate, credits, deadlock freedom, drain, occupancy) on every registered graph blueprint")
	schemas := flag.Bool("schemas", false, "with -graphs, require every blueprint link to be schema-typed at both ends")
	fixture := flag.String("fixture", "", "vet only the named fixture from the blueprint fixture registry (graph analyzers only)")
	allocs := flag.Bool("allocs", false, "run the static allocation prover (hotalloc) over the engine packages")
	all := flag.Bool("all", false, "enable every analyzer family (-graphs -schemas -allocs)")
	flag.Parse()
	if *all {
		*graphs, *schemas, *allocs = true, true, true
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	opt := vetOptions{Allocs: *allocs}
	gopt := graphOptions{Schemas: *schemas, Fixture: *fixture}
	graphsOn := *graphs || *schemas || *fixture != ""
	packagesOn := *fixture == "" // -fixture is a graph-only mode
	var findings []analysis.Finding
	if packagesOn {
		dirs, err := expand(args)
		if err != nil {
			return 2, err
		}
		findings, err = vetPackages(dirs, opt)
		if err != nil {
			return 2, err
		}
	}
	if graphsOn {
		gf, err := vetGraphs(gopt)
		if err != nil {
			return 2, err
		}
		findings = append(findings, gf...)
	}
	analysis.SortFindings(findings)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	hard, warned, waived := 0, 0, 0
	for _, f := range findings {
		switch {
		case f.Waived:
			waived++
		case f.IsError():
			hard++
		default:
			warned++
		}
	}
	if !*jsonOut {
		fmt.Fprintf(os.Stderr, "aurochs-vet: %d errors (%d warnings, %d waived) — %s\n",
			hard, warned, waived, censusLine(enabledFamilies(opt, graphsOn, packagesOn), findings))
	}
	if hard > 0 {
		return 1, nil
	}
	return 0, nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aurochs-vet:", err)
	}
	os.Exit(code)
}
