// Package analysis is the type-checked static-analysis engine behind
// cmd/aurochs-vet. Its analyzers see go/types information, which is what
// the simulator's source-level contracts require:
//
//   - tickpurity: the observation methods the runner calls outside the
//     component's own tick — Idle, CanPush, Done, Drained, Empty — must be
//     observably pure, because the idle-skip and the commit-time credit
//     recomputation assume repeated calls cannot change simulation state;
//   - orderdep: every order-dependent scratchpad RMW (spad.Spec) carries a
//     reviewable justification, because the reordering pipelines retire
//     threads in completion order;
//   - hotalloc: nothing reachable from the per-cycle path — component
//     Ticks, link and queue operations, functions marked hot:path — may
//     allocate without a reviewed marker.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer /
// Pass / Reportf) so analyzers written here port to the upstream driver
// verbatim; the driver itself is stdlib-only — the toolchain image carries
// no module proxy, so the framework is vendored down to the shape we need
// rather than imported.
//
// The determinism rules (wallclock, globalrand, maprange, print) run on
// the same typed engine, so aurochs-vet runs everything through one
// driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies a finding. The zero value ("", historical findings)
// is an error: only findings explicitly marked SevWarning are advisory.
const (
	// SevError findings are contract violations: a non-waived error makes
	// aurochs-vet exit non-zero.
	SevError = "error"
	// SevWarning findings are advisory — unprovable-but-suspect sites
	// (credit sufficiency the prover cannot bound, cross-package calls an
	// allocation walk cannot see into). They are reported and counted but a
	// warnings-only run exits 0.
	SevWarning = "warning"
)

// Finding is one rule violation, JSON-ready for -json output.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
	// Analyzer names the engine pass that produced the finding
	// ("determinism", "tickpurity", "orderdep", "graphs"). Rule is the
	// specific violation within that pass; for single-rule analyzers the
	// two coincide.
	Analyzer string `json:"analyzer"`
	// Severity is SevError or SevWarning; empty means SevError (the
	// zero value keeps old JSON readable).
	Severity string `json:"severity,omitempty"`
	// Waived marks diagnostics accepted on an explicit waiver: reported
	// for reviewability, but not counted toward a failing exit status.
	Waived bool `json:"waived"`
}

// IsError reports whether the finding counts toward a failing exit status
// (it is neither waived nor a warning).
func (f Finding) IsError() bool {
	return !f.Waived && f.Severity != SevWarning
}

func (f Finding) String() string {
	suffix := ""
	if f.Severity == SevWarning {
		suffix = " (warning)"
	}
	if f.Waived {
		suffix += " (waived)"
	}
	return fmt.Sprintf("%s:%d: %s: %s%s", f.File, f.Line, f.Rule, f.Msg, suffix)
}

// SortFindings orders findings stably by (file, line, analyzer, rule) — the
// one ordering every emitter (the analysis driver, aurochs-vet's JSON stream,
// the golden-file test) must share. Stability matters: several analyzers can
// report distinct messages at the same (file, line, analyzer, rule) key, and
// an unstable sort would let their relative order vary run to run, breaking
// golden comparisons across map-iteration and scheduling differences.
func SortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Rule < fs[j].Rule
	})
}

// An Analyzer describes one static-analysis rule. The shape matches
// x/tools/go/analysis.Analyzer minus the dependency machinery (no Requires:
// every analyzer here is self-contained).
type Analyzer struct {
	// Name identifies the rule in findings ("tickpurity", "hotalloc").
	Name string
	// Doc is the one-paragraph contract the rule enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed non-test sources.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	findings *[]Finding
}

// Reportf records one error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, p.Analyzer.Name, "", format, args...)
}

// Warnf records one warning-severity finding at pos: reported and counted,
// but a warnings-only run still exits 0 — the channel for sites an analyzer
// cannot prove either way.
func (p *Pass) Warnf(pos token.Pos, format string, args ...any) {
	p.report(pos, p.Analyzer.Name, SevWarning, format, args...)
}

// report records one finding under rule: the analyzer's own name for
// single-rule analyzers, the specific rule for determinism.
func (p *Pass) report(pos token.Pos, rule, severity, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:     position.Filename,
		Line:     position.Line,
		Rule:     rule,
		Msg:      fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Severity: severity,
	})
}

// FileOf returns the parsed file containing pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// Waived reports whether pos is covered by the given waiver marker, e.g.
// "lint:hotalloc-ok". A marker covers the lines of its comment group plus
// the line immediately below it, so it works inline ("x int // lint:...-ok"),
// as a standalone comment above a field, and anywhere inside the doc comment
// of the declaration it annotates.
func (p *Pass) Waived(pos token.Pos, marker string) bool {
	f := p.FileOf(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		hit := false
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		start := p.Fset.Position(cg.Pos()).Line
		end := p.Fset.Position(cg.End()).Line
		if line >= start && line <= end+1 {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package and returns the merged
// findings in the stable (file, line, analyzer, rule) order of
// SortFindings. Every analyzer needs types: on a package that failed to
// type-check each is reported as an engine error rather than silently
// skipped — a package the checker cannot follow is a finding in itself,
// not a free pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if pkg.Types == nil {
				all = append(all, Finding{
					File:     pkg.Dir,
					Line:     0,
					Rule:     a.Name,
					Analyzer: a.Name,
					Msg: fmt.Sprintf("package did not type-check (%v); %s contract cannot be verified",
						pkg.TypeError, a.Name),
				})
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				findings:  &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Dir, err)
			}
		}
	}
	SortFindings(all)
	return all, nil
}
