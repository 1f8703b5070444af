package fabric

import (
	"fmt"
	"sort"
	"strings"

	"aurochs/internal/analysis/flow"
)

// This file is the prover half of aurochs-vet's graph analysis: where
// check.go rejects malformed topologies, Prove establishes what a sound
// graph is entitled to — schema and reorder facts here, and through the
// token-flow prover (internal/analysis/flow) line rate, credit
// sufficiency, deadlock freedom, loop drain and bounded occupancy — and
// reports what it cannot prove as warnings. Credit shortfalls are
// performance facts, not safety gates: a cap=1 ring still drains
// (TestLoopBackpressureUnderTinyLinks), just below one flit per cycle.

// Proof is one positive fact the prover established about the graph.
type Proof struct {
	// Subject names the link or cycle the fact is about.
	Subject string `json:"subject"`
	// Property is the established fact, with the arithmetic inline.
	Property string `json:"property"`
}

// ProofReport is the outcome of Prove on a structurally sound graph:
// everything it could establish, and everything it could not.
type ProofReport struct {
	// Proofs are the established facts, in deterministic order.
	Proofs []Proof `json:"proofs"`
	// Warnings are the flow prover's failed obligations and hazards
	// (flow-* codes: wedges and drain defects, line-rate and credit
	// starvation, opaque cycles) and — under ProveOptions.RequireSchemas —
	// untyped link endpoints.
	Warnings []Diag `json:"warnings,omitempty"`
	// Waived lists the order-dependent effects accepted on the strength of
	// an explicit waiver (spad.Spec.OrderWaiver or a ReorderDecl.Waiver),
	// plus declared-lossy streams on cycles waived via Spec.LossyWaiver.
	// They are not failures — the waiver is the author's audited
	// justification — but they are surfaced in every report so the audit
	// trail stays visible.
	Waived []Diag `json:"waived,omitempty"`
	// Flow is the token-flow prover's full report, occupancy bounds and
	// replayable wedge witnesses included.
	Flow *flow.Report `json:"flow,omitempty"`
}

// Clean reports whether every obligation was proven. Waived effects do not
// make a report unclean; they are accepted by declaration.
func (r *ProofReport) Clean() bool { return len(r.Warnings) == 0 }

func (r *ProofReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proved %d facts, %d warnings, %d waived", len(r.Proofs), len(r.Warnings), len(r.Waived))
	for _, p := range r.Proofs {
		fmt.Fprintf(&b, "\n  proof %s: %s", p.Subject, p.Property)
	}
	for _, d := range r.Warnings {
		fmt.Fprintf(&b, "\n  warn %s", d.String())
	}
	for _, d := range r.Waived {
		fmt.Fprintf(&b, "\n  waived %s", d.String())
	}
	return b.String()
}

// ProveOptions configures Prove's strictness.
type ProveOptions struct {
	// RequireSchemas demands a schema declaration on both endpoints of
	// every link: endpoints left untyped are reported as DiagUntypedLink
	// warnings instead of being silently skipped. This is the -schemas
	// gate of aurochs-vet; shipped blueprints must pass it.
	RequireSchemas bool
}

// Prove statically verifies the graph. It first runs Check — proofs about
// a malformed topology would be vacuous — and returns its *CheckError
// unchanged if the structure is unsound. Otherwise it returns a report
// combining the schema and reorder facts with the token-flow prover's:
// per link, whether the credit loop sustains full line rate (capacity >=
// latency+1: the link holds latency flits in flight plus one buffered at
// the consumer); per recirculating cycle, whether total buffering covers
// the cycle's line-rate occupancy (sum of capacities >= sum of latencies
// + 1) and whether it is deadlock-free and drains; and the graph-wide
// occupancy bound.
func (g *Graph) Prove() (*ProofReport, error) {
	return g.ProveWith(ProveOptions{})
}

// ProveWith is Prove with explicit options; see ProveOptions.
func (g *Graph) ProveWith(opt ProveOptions) (*ProofReport, error) {
	if err := g.Check(); err != nil {
		return nil, err
	}
	report := &ProofReport{}
	comps, ends, _ := g.attribute()
	g.proveSchemas(report, comps, ends, opt)
	g.proveReorder(report, comps)

	fr := g.ProveFlow()
	report.Flow = fr
	for _, p := range fr.Proofs {
		report.Proofs = append(report.Proofs, Proof{Subject: p.Subject, Property: p.Property})
	}
	for _, fs := range [][]flow.Finding{fr.Findings, fr.Warnings} {
		for _, f := range fs {
			report.Warnings = append(report.Warnings, Diag{DiagCode(f.Rule), f.Msg})
		}
	}
	for _, f := range fr.Waived {
		report.Waived = append(report.Waived, Diag{DiagCode(f.Rule), f.Msg})
	}

	sort.Slice(report.Proofs, func(i, j int) bool {
		if report.Proofs[i].Subject != report.Proofs[j].Subject {
			return report.Proofs[i].Subject < report.Proofs[j].Subject
		}
		return report.Proofs[i].Property < report.Proofs[j].Property
	})
	byCode := func(ds []Diag) func(i, j int) bool {
		return func(i, j int) bool {
			if ds[i].Code != ds[j].Code {
				return ds[i].Code < ds[j].Code
			}
			return ds[i].Msg < ds[j].Msg
		}
	}
	sort.Slice(report.Warnings, byCode(report.Warnings))
	sort.Slice(report.Waived, byCode(report.Waived))
	return report, nil
}
