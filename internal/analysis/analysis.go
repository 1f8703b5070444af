// Package analysis is the type-checked static-analysis engine behind
// cmd/aurochs-vet. It upgrades internal/lint's AST-only rules to analyzers
// that see go/types information, which is what the two load-bearing
// contracts of the simulator kernel require:
//
//   - sharedstate: a component whose fields can alias mutable heap state
//     reachable from another component must declare that state via
//     SharedState(), or the wake scheduler never learns that a partner's
//     tick can change its Idle answer (internal/sim/wake.go);
//   - tickpurity: the observation methods the kernel calls outside the
//     component's own tick — Idle, CanPush, Done, Drained, Empty — must be
//     observably pure, because the idle-skip and the commit-time credit
//     recomputation assume repeated calls cannot change simulation state.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer /
// Pass / Reportf) so analyzers written here port to the upstream driver
// verbatim; the driver itself is stdlib-only — the toolchain image carries
// no module proxy, so the framework is vendored down to the shape we need
// rather than imported.
//
// The PR-1 determinism rules (wallclock, globalrand, maprange, print) are
// folded into the same engine via adapter analyzers over internal/lint, so
// aurochs-vet runs everything through one driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aurochs/internal/lint"
)

// An Analyzer describes one static-analysis rule. The shape matches
// x/tools/go/analysis.Analyzer minus the dependency machinery (no Requires:
// every analyzer here is self-contained).
type Analyzer struct {
	// Name identifies the rule in findings ("sharedstate", "tickpurity").
	Name string
	// Doc is the one-paragraph contract the rule enforces.
	Doc string
	// NeedsTypes marks analyzers that require a successfully type-checked
	// package; the driver skips them (with an error finding) when type
	// checking failed, instead of crashing on a nil types.Info.
	NeedsTypes bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed non-test sources; Filenames is parallel.
	Files     []*ast.File
	Filenames []string
	// Pkg and TypesInfo are nil when the package failed to type-check and
	// the analyzer declared NeedsTypes=false.
	Pkg       *types.Package
	TypesInfo *types.Info

	findings *[]lint.Finding
}

// Reportf records one error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, "", format, args...)
}

// Warnf records one warning-severity finding at pos: reported and counted,
// but a warnings-only run still exits 0 — the channel for sites an analyzer
// cannot prove either way.
func (p *Pass) Warnf(pos token.Pos, format string, args ...any) {
	p.report(pos, lint.SevWarning, format, args...)
}

func (p *Pass) report(pos token.Pos, severity, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, lint.Finding{
		File:     position.Filename,
		Line:     position.Line,
		Rule:     p.Analyzer.Name,
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
// "lint:sharedstate-ok". A marker covers the lines of its comment group plus
// the line immediately below it, so it works inline ("x int // lint:...-ok"),
// as a standalone comment above a field, and anywhere inside the doc comment
// of the declaration it annotates — matching the maprange waiver convention
// from internal/lint.
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
// lint.SortFindings. Analyzers needing types are
// reported as engine errors on packages that failed to type-check rather
// than silently skipped — a package the checker cannot follow is a finding
// in itself, not a free pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]lint.Finding, error) {
	var all []lint.Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.NeedsTypes && pkg.Types == nil {
				all = append(all, lint.Finding{
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
				Filenames: pkg.Filenames,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				findings:  &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Dir, err)
			}
		}
	}
	lint.SortFindings(all)
	return all, nil
}
