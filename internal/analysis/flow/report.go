package flow

import (
	"fmt"
	"strings"
)

// The prover's finding rules. Each names one way a cyclic pipeline can
// defeat the credit protocol; the matching witness mode says how the
// simulator fails when the rule fires.
const (
	// RuleNoEntry: a cycle with no loop-entry merge — end-of-stream can
	// never be proven safe to enter, so the cycle stalls after its work.
	RuleNoEntry = "flow-no-entry"
	// RuleEntryMiswired: a loop entry whose priority input is fed from
	// outside its cycle or whose external input is fed from inside — the
	// drain count tracks the wrong stream and never returns to zero.
	RuleEntryMiswired = "flow-entry-miswired"
	// RuleNoExit: a cycle with no exit port and no counted kill — tokens
	// that enter can never leave, so enough of them wedge every producer.
	RuleNoExit = "flow-no-exit"
	// RuleExitBlocked: every exit of a cycle leads into the cycle itself
	// or into a downstream component that was not proven drainable — the
	// exits exist syntactically but cannot relieve pressure.
	RuleExitBlocked = "flow-exit-blocked"
	// RuleUncountedEntry: a token path enters a cycle without passing the
	// loop entry's counted external input — exits then outnumber entries
	// and the in-flight count underflows (a hard engine panic).
	RuleUncountedEntry = "flow-uncounted-entry"
	// RuleUncountedExit: tokens leave a cycle without being counted out
	// (an exit port or kill with no loop control, a fork whose thread
	// delta is unreported, an undeclared lossy response hook) — the
	// in-flight count never reaches zero and end-of-stream never enters.
	RuleUncountedExit = "flow-uncounted-exit"
	// RuleCtlMismatch: a node on a cycle counts into a different loop
	// control than the cycle's entry — entries and exits are tallied on
	// separate counters and neither drains.
	RuleCtlMismatch = "flow-ctl-mismatch"
	// RuleOpaqueCycle (warning): an unclassified component sits on a
	// cycle; the prover's bounds and drain facts do not cover it.
	RuleOpaqueCycle = "flow-opaque-cycle"
	// RuleLossyWaived (waived): a declared-lossy node on a cycle carrying
	// an audited waiver; surfaced for review, not a failure.
	RuleLossyWaived = "flow-lossy-waived"
	// RuleLineRate (warning): a link with capacity < latency+1 cannot
	// sustain one flit per cycle; steady-state throughput degrades to
	// cap/(lat+1). The credit protocol still makes progress, so this is a
	// performance hazard, not a wedge.
	RuleLineRate = "flow-line-rate"
	// RuleCreditStarved (warning): a cycle whose internal links cannot
	// cover its line-rate occupancy (Σcap < Σlat+1, i.e. Slack < 1);
	// threads single-file around the loop.
	RuleCreditStarved = "flow-credit-starved"
)

// WitnessMode says how the simulator fails when the witnessed defect is
// driven with enough tokens.
type WitnessMode string

const (
	// WedgeWitness: the cycle's population saturates and can never leave —
	// the run cannot complete. The engine reports it as sim.DeadlockError
	// when motion stops entirely, or as sim.BudgetError when the full ring
	// keeps rotating (credits recycle at end-of-cycle commit, so a
	// saturated loop can livelock at perpetual motion); either way the
	// witness's nodes are in the stuck set.
	WedgeWitness WitnessMode = "wedge"
	// StallWitness: the data drains but end-of-stream never propagates —
	// the run quiesces into sim.DeadlockError with the loop entry stuck.
	StallWitness WitnessMode = "stall"
	// UnderflowWitness: an exit is counted that was never counted in; the
	// engine panics with the loop-control underflow diagnostic.
	UnderflowWitness WitnessMode = "underflow"
)

// Witness is a concrete failure prediction: inject Inject records at the
// cycle's external input and the engine fails in Mode, with Fill's links
// full and Blocked's components stuck (for deadlock modes).
type Witness struct {
	// Rule is the finding that produced this witness.
	Rule string `json:"rule"`
	// Mode is the predicted failure shape.
	Mode WitnessMode `json:"mode"`
	// Cycle lists the member node names, sorted.
	Cycle []string `json:"cycle"`
	// Inject is a sufficient external record count to reach the failure:
	// for a wedge, the net's total token capacity plus slack (the minimal
	// blocking placement is Fill; any input at least this large realizes
	// it). Stalls and underflows need only a handful of records.
	Inject int `json:"inject"`
	// Fill names the links the placement fills (wedge mode).
	Fill []string `json:"fill,omitempty"`
	// Blocked names the components the failure leaves stuck — a subset of
	// the sim.DeadlockError.Stuck the replay must report.
	Blocked []string `json:"blocked,omitempty"`
	// Explain is the human-readable account of the placement.
	Explain string `json:"explain"`
}

// Finding is one failed proof obligation.
type Finding struct {
	// Rule is one of the Rule* constants.
	Rule string `json:"rule"`
	// Msg is the diagnostic text.
	Msg string `json:"msg"`
	// Witness is the replayable counterexample, when the failure is a
	// concrete runtime behaviour rather than a modelling gap.
	Witness *Witness `json:"witness,omitempty"`
}

// Proof is one established fact.
type Proof struct {
	Subject  string `json:"subject"`
	Property string `json:"property"`
}

// LinkBound is the occupancy interval of one link: tokens in flight on it
// stay within [0, MaxRecords].
type LinkBound struct {
	Link string `json:"link"`
	// MaxRecords = min(capacity × lanes, upstream supply).
	MaxRecords int `json:"max_records"`
}

// CycleBound is the occupancy bound of one nontrivial SCC.
type CycleBound struct {
	// Nodes lists the member names, sorted.
	Nodes []string `json:"nodes"`
	// MaxRecords bounds tokens resident in the cycle: internal link
	// capacity plus member node residency.
	MaxRecords int `json:"max_records"`
	// Slack is Σcap − Σlat over internal links (flits): the credit
	// headroom beyond line-rate occupancy.
	Slack int `json:"slack"`
	// Amplified marks a cycle containing a fork: MaxRecords then bounds
	// buffered residency, not thread population, because expansion fan
	// is dynamic.
	Amplified bool `json:"amplified,omitempty"`
}

// Occupancy is the bounded-occupancy report: how much memory the graph
// can ever hold in flight, per link, per cycle, and inside nodes
// (pipeline registers, accumulators, scratchpad reorder buffers).
type Occupancy struct {
	Links  []LinkBound  `json:"links"`
	Cycles []CycleBound `json:"cycles,omitempty"`
	// Resident is Σ node-internal bounds across the graph.
	Resident int `json:"resident"`
	// Total is links + resident: the graph-wide in-flight token bound.
	Total int `json:"total"`
}

// Report is the outcome of Prove.
type Report struct {
	// Proofs are the established facts, deterministically ordered.
	Proofs []Proof `json:"proofs"`
	// Findings are failed obligations — each a provable runtime failure,
	// most carrying a replayable witness.
	Findings []Finding `json:"findings,omitempty"`
	// Warnings are modelling gaps (opaque nodes on cycles), where the
	// prover abstains rather than claiming either way, and credit
	// under-provisioning (line rate, starved cycles), where the graph
	// drains but slowly.
	Warnings []Finding `json:"warnings,omitempty"`
	// Waived are accepted-by-declaration findings (audited lossy nodes).
	Waived []Finding `json:"waived,omitempty"`
	// Occupancy is always computed, even for failing nets.
	Occupancy Occupancy `json:"occupancy"`
}

// DeadlockFree reports whether every obligation was proven.
func (r *Report) DeadlockFree() bool { return len(r.Findings) == 0 }

// Witnesses collects the findings' witnesses in report order.
func (r *Report) Witnesses() []*Witness {
	var out []*Witness
	for i := range r.Findings {
		if w := r.Findings[i].Witness; w != nil {
			out = append(out, w)
		}
	}
	return out
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow: %d proofs, %d findings, %d warnings, %d waived, occupancy <= %d records",
		len(r.Proofs), len(r.Findings), len(r.Warnings), len(r.Waived), r.Occupancy.Total)
	for _, p := range r.Proofs {
		fmt.Fprintf(&b, "\n  proof %s: %s", p.Subject, p.Property)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\n  finding %s: %s", f.Rule, f.Msg)
	}
	for _, f := range r.Warnings {
		fmt.Fprintf(&b, "\n  warn %s: %s", f.Rule, f.Msg)
	}
	for _, f := range r.Waived {
		fmt.Fprintf(&b, "\n  waived %s: %s", f.Rule, f.Msg)
	}
	return b.String()
}
