package flow

import (
	"fmt"
	"sort"
	"strings"

	"aurochs/internal/sim"
)

// Prove interprets the net: it condenses the node graph into strongly
// connected components, propagates token-supply intervals across the
// condensation in topological order, then walks the components in reverse
// topological order (consumers first) proving, for every cycle, that
// tokens can leave it toward drainable consumers and that the loop
// control's in-flight count is complete. Failures carry witnesses the
// fabric replay harness can drive against the real simulator.
//
// Prove never panics on malformed nets (fuzzed topologies): edges with
// out-of-range endpoints are ignored, and every slice access is bounded.
func Prove(net *Net) *Report {
	p := newProver(net)
	p.propagateSupply()
	p.proveCycles()
	p.occupancy()
	p.finish()
	return p.report
}

type prover struct {
	net    *Net
	lanes  int
	report *Report

	edges []int // indices of structurally valid edges
	adj   [][]int32
	of    []int32 // SCC index per node (Tarjan emission order)
	count int

	members    [][]int // per SCC, ascending node ids
	internal   [][]int // per SCC, internal edge ids
	entering   [][]int // per SCC, edge ids arriving from another SCC
	nontrivial []bool
	drainable  []bool

	edgeSupply []int // records reachable per edge; -1 unbounded
	edgeBound  []int // min(cap×lanes, supply)
	totalBound int   // Σ edge cap×lanes + Σ node resident (witness sizing)
}

func newProver(net *Net) *prover {
	p := &prover{net: net, lanes: net.Lanes, report: &Report{}}
	if p.lanes <= 0 {
		p.lanes = 1
	}
	n := len(net.Nodes)
	p.adj = make([][]int32, n)
	for ei := range net.Edges {
		e := &net.Edges[ei]
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			continue
		}
		p.edges = append(p.edges, ei)
		p.adj[e.From] = append(p.adj[e.From], int32(e.To))
	}
	p.of, p.count = sim.StronglyConnected(p.adj)
	p.members = make([][]int, p.count)
	p.internal = make([][]int, p.count)
	p.entering = make([][]int, p.count)
	p.nontrivial = make([]bool, p.count)
	p.drainable = make([]bool, p.count)
	for i := range net.Nodes {
		k := int(p.of[i])
		p.members[k] = append(p.members[k], i)
	}
	for _, ei := range p.edges {
		e := &net.Edges[ei]
		kf, kt := int(p.of[e.From]), int(p.of[e.To])
		if kf == kt {
			p.internal[kf] = append(p.internal[kf], ei)
			p.nontrivial[kf] = true // self-loop or larger cycle
		} else {
			p.entering[kt] = append(p.entering[kt], ei)
		}
	}
	p.totalBound = 0
	for _, ei := range p.edges {
		p.totalBound += p.net.Edges[ei].Cap * p.lanes
	}
	for i := range net.Nodes {
		p.totalBound += net.Nodes[i].Resident
	}
	return p
}

// addSupply saturates on the unbounded sentinel (-1).
func addSupply(a, b int) int {
	if a < 0 || b < 0 {
		return -1
	}
	return a + b
}

// propagateSupply walks the condensation in topological order (Tarjan
// emission is reverse topological, so descending component index visits
// producers before consumers) and assigns every edge the token-count
// interval [0, supply]: the most records that can ever traverse it.
func (p *prover) propagateSupply() {
	p.edgeSupply = make([]int, len(p.net.Edges))
	for i := range p.edgeSupply {
		p.edgeSupply[i] = -1
	}
	for k := p.count - 1; k >= 0; k-- {
		in := 0
		for _, ei := range p.entering[k] {
			in = addSupply(in, p.edgeSupply[ei])
		}
		amp := false
		for _, i := range p.members[k] {
			nd := &p.net.Nodes[i]
			if nd.Kind == SourceKind {
				in = addSupply(in, nd.Supply)
			}
			if nd.Amplify || nd.Kind == Opaque {
				amp = true
			}
		}
		out := in
		if amp {
			out = -1
		}
		if !p.nontrivial[k] {
			// A single node off any cycle: a non-amplifying node forwards at
			// most what reaches it.
			nd := &p.net.Nodes[p.members[k][0]]
			if nd.Kind == SourceKind {
				out = nd.Supply
			}
		}
		for _, ei := range p.edges {
			if int(p.of[p.net.Edges[ei].From]) == k {
				p.edgeSupply[ei] = out
			}
		}
	}
	p.edgeBound = make([]int, len(p.net.Edges))
	for _, ei := range p.edges {
		b := p.net.Edges[ei].Cap * p.lanes
		if s := p.edgeSupply[ei]; s >= 0 && s < b {
			b = s
		}
		p.edgeBound[ei] = b
	}
}

// sccNames returns the sorted member names of component k.
func (p *prover) sccNames(k int) []string {
	names := make([]string, 0, len(p.members[k]))
	for _, i := range p.members[k] {
		names = append(names, p.net.Nodes[i].Name)
	}
	sort.Strings(names)
	return names
}

func subject(names []string) string {
	return "cycle [" + strings.Join(names, ", ") + "]"
}

// proveCycles walks components in Tarjan emission order — consumers
// before producers — so each cycle's exits are judged against already
// settled downstream drainability.
func (p *prover) proveCycles() {
	sawCycle := false
	for k := 0; k < p.count; k++ {
		if !p.nontrivial[k] {
			p.drainable[k] = p.trivialDrainable(p.members[k][0])
			continue
		}
		sawCycle = true
		p.proveCycle(k)
	}
	if !sawCycle {
		p.report.Proofs = append(p.report.Proofs, Proof{
			Subject:  "token-flow",
			Property: "acyclic: no credit cycle exists, so every token path is finite and draining the sources drains the graph",
		})
	}
}

// trivialDrainable decides whether a node off every cycle passes tokens
// onward forever: sinks and output-less absorbers do; everything else
// needs all its successors drainable (a filter may route its whole stream
// to any one output). Opaque nodes are optimistically drainable — the
// prover abstains about them on cycles, where it matters.
func (p *prover) trivialDrainable(i int) bool {
	nd := &p.net.Nodes[i]
	if nd.Kind == SinkKind || nd.Kind == Opaque {
		return true
	}
	for _, ei := range p.edges {
		e := &p.net.Edges[ei]
		if e.From == i && !p.drainable[p.of[e.To]] {
			return false
		}
	}
	return true
}

// ctlIn reports membership in the (tiny) entry-control set.
func ctlIn(set []int, ctl int) bool {
	for _, c := range set {
		if c == ctl {
			return true
		}
	}
	return false
}

// proveCycle runs every per-cycle obligation for nontrivial component k.
func (p *prover) proveCycle(k int) {
	names := p.sccNames(k)
	subj := subject(names)
	nFindings := len(p.report.Findings)

	var entries []int
	var entryCtls []int
	elastic, opaque := false, false
	for _, i := range p.members[k] {
		nd := &p.net.Nodes[i]
		if nd.Kind == MergeKind && nd.LoopEntry {
			entries = append(entries, i)
			if nd.Ctl >= 0 && !ctlIn(entryCtls, nd.Ctl) {
				entryCtls = append(entryCtls, nd.Ctl)
			}
		}
		if nd.Elastic {
			elastic = true
		}
		if nd.Kind == Opaque {
			opaque = true
		}
	}
	if opaque {
		p.report.Warnings = append(p.report.Warnings, Finding{
			Rule: RuleOpaqueCycle,
			Msg:  fmt.Sprintf("%s contains a component the net builder could not classify; drain and occupancy facts do not cover it", subj),
		})
	}

	if len(entries) == 0 {
		p.report.Findings = append(p.report.Findings, Finding{
			Rule: RuleNoEntry,
			Msg:  fmt.Sprintf("%s has no loop-entry merge (NewLoopMerge): nothing proves the cycle empty, so end-of-stream can never safely enter it", subj),
		})
		return
	}

	// Entry orientation: the priority input must close the cycle, the
	// external input must come from outside — the swapped-argument bug
	// counts entries on the wrong stream.
	for _, i := range entries {
		nd := &p.net.Nodes[i]
		if e := p.edgeAt(nd.Pri); e != nil && int(p.of[e.From]) != k {
			p.report.Findings = append(p.report.Findings, Finding{
				Rule: RuleEntryMiswired,
				Msg: fmt.Sprintf("loop entry %q: priority input %q is fed from outside its cycle — entries are counted on the recirculating stream instead, so the in-flight count grows every lap and never returns to zero",
					nd.Name, e.Name),
				Witness: p.stallWitness(RuleEntryMiswired, names, []string{nd.Name},
					fmt.Sprintf("feed the loop records that recirculate at least once: each lap counts an entry but only the final exit counts out, so Inflight ends positive and %q never emits end-of-stream", nd.Name)),
			})
		}
		if e := p.edgeAt(nd.Sec); e != nil && int(p.of[e.From]) == k {
			p.report.Findings = append(p.report.Findings, Finding{
				Rule: RuleEntryMiswired,
				Msg: fmt.Sprintf("loop entry %q: external input %q is fed from its own cycle — the recirculating stream is being counted as external entries",
					nd.Name, e.Name),
			})
		}
	}

	// Every token path into the cycle must pass a counted entry: an edge
	// arriving anywhere else admits tokens the drain count never saw, so
	// their exits drive the count below zero.
	for _, ei := range p.entering[k] {
		e := &p.net.Edges[ei]
		to := &p.net.Nodes[e.To]
		if to.LoopEntry && (e.To < len(p.net.Nodes)) && (p.portIs(to.Sec, ei) || p.portIs(to.Pri, ei)) {
			continue // counted entry (Sec) or already reported as miswired (Pri)
		}
		p.report.Findings = append(p.report.Findings, Finding{
			Rule: RuleUncountedEntry,
			Msg: fmt.Sprintf("%s admits tokens over %q into %q without passing a loop entry: those tokens were never counted in, so their exits underflow the in-flight count",
				subj, e.Name, to.Name),
			Witness: &Witness{
				Rule:   RuleUncountedEntry,
				Mode:   UnderflowWitness,
				Cycle:  names,
				Inject: p.lanes,
				Explain: fmt.Sprintf("inject records over %q: they circulate and eventually take a counted exit, decrementing an in-flight count that never saw them enter — the engine panics with the loop inflight underflow diagnostic",
					e.Name),
			},
		})
	}

	p.proveExits(k, names, subj, entries, entryCtls, elastic)

	if len(p.report.Findings) > nFindings || opaque {
		return // drainable[k] stays false; upstream cycles judge against it
	}
	p.drainable[k] = true
	entryNames := make([]string, len(entries))
	for i, e := range entries {
		entryNames[i] = p.net.Nodes[e].Name
	}
	sort.Strings(entryNames)
	p.report.Proofs = append(p.report.Proofs, Proof{
		Subject: subj,
		Property: fmt.Sprintf("deadlock-free: every counted exit leads to a drainable consumer and entry admission at [%s] is gated on the cycle's own progress, so some link always has a free slot",
			strings.Join(entryNames, ", ")),
	})
	p.report.Proofs = append(p.report.Proofs, Proof{
		Subject: subj,
		Property: fmt.Sprintf("loop-drain: entries, exits, kills, and spawns all count into the loop control of [%s], so once sources exhaust the in-flight count reaches zero and end-of-stream propagates",
			strings.Join(entryNames, ", ")),
	})
}

// proveExits scans component k's ports for ways out of the cycle and
// checks each against the drain accounting.
func (p *prover) proveExits(k int, names []string, subj string, entries, entryCtls []int, elastic bool) {
	sawExit, viable := false, false
	var blockedExits []string // counted exits leading to non-drainable consumers
	inCycleExit := false      // an Exit-flagged port whose edge stays inside the cycle
	for _, i := range p.members[k] {
		nd := &p.net.Nodes[i]
		ctlOK := nd.Ctl >= 0 && ctlIn(entryCtls, nd.Ctl)
		mismatched := nd.Ctl >= 0 && !ctlOK && !nd.LoopEntry
		if mismatched {
			p.report.Findings = append(p.report.Findings, Finding{
				Rule: RuleCtlMismatch,
				Msg: fmt.Sprintf("%s: node %q counts into a different loop control than the cycle's entry — entries and exits are tallied on separate counters and neither count ever drains",
					subj, nd.Name),
				Witness: p.stallWitness(RuleCtlMismatch, names, p.entryNamesOf(entries),
					fmt.Sprintf("records exiting through %q decrement the wrong counter; the entry's in-flight count never reaches zero and end-of-stream never enters the loop", nd.Name)),
			})
			// Its exits still relieve pressure (records do leave, they are
			// just counted on the wrong counter): register them for the
			// no-exit check but suppress the per-port findings, which would
			// restate the same defect.
			for _, port := range nd.Out {
				if port.Edge < 0 {
					sawExit = true
					continue
				}
				if e := p.edgeAt(port.Edge); e != nil && int(p.of[e.To]) != k {
					sawExit = true
				}
			}
			continue
		}
		if nd.Lossy {
			if nd.LossyWaiver != "" {
				p.report.Waived = append(p.report.Waived, Finding{
					Rule: RuleLossyWaived,
					Msg: fmt.Sprintf("%s: node %q may drop threads in its response hook, waived: %s",
						subj, nd.Name, nd.LossyWaiver),
				})
			} else {
				p.report.Findings = append(p.report.Findings, Finding{
					Rule: RuleUncountedExit,
					Msg: fmt.Sprintf("%s: node %q declares a lossy response hook on a cycle with no waiver — dropped threads are never counted out of the loop control",
						subj, nd.Name),
					Witness: p.stallWitness(RuleUncountedExit, names, p.entryNamesOf(entries),
						fmt.Sprintf("any thread %q drops stays counted as in flight forever; the loop can never prove itself empty", nd.Name)),
				})
			}
		}
		if (nd.Amplify || nd.Kind == ForkKind) && nd.Ctl < 0 {
			p.report.Findings = append(p.report.Findings, Finding{
				Rule: RuleUncountedExit,
				Msg: fmt.Sprintf("%s: fork %q changes the thread population inside a cycle without a loop control — spawns and kills go uncounted",
					subj, nd.Name),
			})
		}
		if nd.CanKill && ctlOK {
			sawExit = true // counted dynamic kills retire tokens, but are
			// not a declared exit: they do not make the cycle viable alone.
		}
		for _, port := range nd.Out {
			if port.Edge < 0 {
				sawExit = true
				switch {
				case port.Exit && ctlOK:
					viable = true // counted kill port: tokens provably leave
				case port.Exit:
					p.report.Findings = append(p.report.Findings, Finding{
						Rule: RuleUncountedExit,
						Msg: fmt.Sprintf("%s: node %q kills threads on an exit port but carries no loop control — kills are never counted out",
							subj, nd.Name),
						Witness: p.stallWitness(RuleUncountedExit, names, p.entryNamesOf(entries),
							fmt.Sprintf("threads killed at %q stay counted as in flight; the entry's drain condition never holds", nd.Name)),
					})
				default:
					p.report.Findings = append(p.report.Findings, Finding{
						Rule: RuleUncountedExit,
						Msg: fmt.Sprintf("%s: node %q silently drops threads (nil output, no exit declaration) inside a cycle — the drain count never learns they left",
							subj, nd.Name),
					})
				}
				continue
			}
			e := p.edgeAt(port.Edge)
			if e == nil {
				continue
			}
			if int(p.of[e.To]) == k {
				if port.Exit {
					sawExit = true
					inCycleExit = true
					blockedExits = append(blockedExits,
						fmt.Sprintf("%s -> %s (re-enters the cycle)", nd.Name, e.Name))
				}
				continue
			}
			sawExit = true
			switch {
			case !port.Exit:
				p.report.Findings = append(p.report.Findings, Finding{
					Rule: RuleUncountedExit,
					Msg: fmt.Sprintf("%s: tokens leave over %q from %q without an exit declaration — the loop control never counts them out",
						subj, e.Name, nd.Name),
					Witness: p.stallWitness(RuleUncountedExit, names, p.entryNamesOf(entries),
						fmt.Sprintf("records escape the loop over %q but stay counted as in flight; end-of-stream never enters", e.Name)),
				})
			case !ctlOK:
				p.report.Findings = append(p.report.Findings, Finding{
					Rule: RuleUncountedExit,
					Msg: fmt.Sprintf("%s: exit port %q -> %q carries no loop control — exits are declared but never counted",
						subj, nd.Name, e.Name),
					Witness: p.stallWitness(RuleUncountedExit, names, p.entryNamesOf(entries),
						fmt.Sprintf("records exit over %q uncounted; the entry's in-flight count stays at its admission total forever", e.Name)),
				})
			case p.drainable[p.of[e.To]]:
				viable = true
			default:
				blockedExits = append(blockedExits,
					fmt.Sprintf("%s -> %s (consumer not proven drainable)", nd.Name, e.Name))
			}
		}
	}
	switch {
	case !sawExit:
		p.report.Findings = append(p.report.Findings, Finding{
			Rule: RuleNoExit,
			Msg: fmt.Sprintf("%s has no exit port and no counted kill: every token that enters circulates forever, so enough admitted tokens fill every link and block every producer",
				subj),
			Witness: p.wedgeWitness(RuleNoExit, k, names, elastic,
				"admit more records than the cycle's total buffering: the entry keeps admitting while its accumulator has room, the resident population grows monotonically, and once every link and pipeline register is full no member can push or pop"),
		})
	case !viable && len(blockedExits) > 0:
		sort.Strings(blockedExits)
		mode := ""
		if inCycleExit {
			mode = " counted exits re-enter the cycle, so the same token is counted out twice and the in-flight count underflows;"
		}
		w := p.wedgeWitness(RuleExitBlocked, k, names, elastic,
			"every declared exit feeds a consumer that itself cannot drain; pressure propagates back into the cycle until every link is full")
		if inCycleExit {
			w.Mode = UnderflowWitness
			w.Fill = nil
			w.Inject = p.lanes
			w.Explain = "records take the counted exit, re-enter the cycle uncounted, and are counted out again on their next pass — the engine panics with the loop inflight underflow diagnostic"
		}
		p.report.Findings = append(p.report.Findings, Finding{
			Rule: RuleExitBlocked,
			Msg: fmt.Sprintf("%s: no exit relieves pressure —%s blocked exits: [%s]",
				subj, mode, strings.Join(blockedExits, "; ")),
			Witness: w,
		})
	}
}

// entryNamesOf returns the sorted names of the entry merges.
func (p *prover) entryNamesOf(entries []int) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = p.net.Nodes[e].Name
	}
	sort.Strings(out)
	return out
}

// edgeAt bounds-checks an edge id.
func (p *prover) edgeAt(ei int) *Edge {
	if ei < 0 || ei >= len(p.net.Edges) {
		return nil
	}
	return &p.net.Edges[ei]
}

// portIs reports whether the node port id refers to edge ei.
func (p *prover) portIs(port, ei int) bool { return port >= 0 && port == ei }

// wedgeWitness predicts a total wedge of component k. Inject is sized
// from the whole net's token bound — an overestimate is always safe (the
// excess queues upstream of the cycle), an underestimate is not.
func (p *prover) wedgeWitness(rule string, k int, names []string, elastic bool, explain string) *Witness {
	w := &Witness{
		Rule:    rule,
		Mode:    WedgeWitness,
		Cycle:   names,
		Inject:  p.totalBound + 2*p.lanes,
		Blocked: names,
		Explain: explain,
	}
	for _, ei := range p.internal[k] {
		w.Fill = append(w.Fill, p.net.Edges[ei].Name)
	}
	sort.Strings(w.Fill)
	if elastic {
		// A spill queue on the cycle absorbs unbounded pressure: the cycle
		// cannot wedge, but it still never drains at end-of-stream.
		w.Mode = StallWitness
		w.Fill = nil
	}
	return w
}

// stallWitness predicts a post-work stall: data drains, end-of-stream
// does not, and the run quiesces into a deadlock with the entry stuck.
func (p *prover) stallWitness(rule string, names, blocked []string, explain string) *Witness {
	return &Witness{
		Rule:    rule,
		Mode:    StallWitness,
		Cycle:   names,
		Inject:  p.lanes,
		Blocked: blocked,
		Explain: explain,
	}
}

// occupancy assembles the bounded-occupancy report from the propagated
// intervals, and the credit facts from the same per-link and per-cycle
// capacity sums: a link sustains line rate when cap >= lat+1 (lat flits
// in flight plus one buffered at the consumer), and a cycle is
// credit-sufficient when its internal links cover their line-rate
// occupancy, Σcap >= Σlat+1 (Slack >= 1). Falling short of either is a
// warning: the graph still drains, just below one flit per cycle.
func (p *prover) occupancy() {
	occ := &p.report.Occupancy
	linkSum := 0
	for _, ei := range p.edges {
		e := &p.net.Edges[ei]
		occ.Links = append(occ.Links, LinkBound{
			Link:       e.Name,
			MaxRecords: p.edgeBound[ei],
		})
		linkSum += p.edgeBound[ei]
		if e.Cap >= e.Lat+1 {
			p.report.Proofs = append(p.report.Proofs, Proof{
				Subject:  "link " + e.Name,
				Property: fmt.Sprintf("sustains full line rate (capacity %d >= latency %d + 1)", e.Cap, e.Lat),
			})
		} else {
			p.report.Warnings = append(p.report.Warnings, Finding{
				Rule: RuleLineRate,
				Msg: fmt.Sprintf("link %q cannot sustain line rate: capacity %d < latency %d + 1; steady-state throughput is %d/%d flits per cycle",
					e.Name, e.Cap, e.Lat, e.Cap, e.Lat+1),
			})
		}
	}
	sort.Slice(occ.Links, func(i, j int) bool { return occ.Links[i].Link < occ.Links[j].Link })
	for i := range p.net.Nodes {
		occ.Resident += p.net.Nodes[i].Resident
	}
	occ.Total = linkSum + occ.Resident
	for k := 0; k < p.count; k++ {
		if !p.nontrivial[k] {
			continue
		}
		cb := CycleBound{Nodes: p.sccNames(k)}
		var sumCap, sumLat int
		links := make([]string, 0, len(p.internal[k]))
		for _, ei := range p.internal[k] {
			e := &p.net.Edges[ei]
			cb.MaxRecords += p.edgeBound[ei]
			sumCap += e.Cap
			sumLat += e.Lat
			links = append(links, e.Name)
		}
		cb.Slack = sumCap - sumLat
		subj, across := subject(cb.Nodes), strings.Join(links, ", ")
		if cb.Slack >= 1 {
			p.report.Proofs = append(p.report.Proofs, Proof{
				Subject: subj,
				Property: fmt.Sprintf("credit-sufficient: buffering %d >= line-rate occupancy %d + 1 across links [%s]",
					sumCap, sumLat, across),
			})
		} else {
			p.report.Warnings = append(p.report.Warnings, Finding{
				Rule: RuleCreditStarved,
				Msg: fmt.Sprintf("%s is credit-starved: total capacity %d < line-rate occupancy %d + 1 across links [%s]; threads will single-file around the loop",
					subj, sumCap, sumLat, across),
			})
		}
		for _, i := range p.members[k] {
			cb.MaxRecords += p.net.Nodes[i].Resident
			if p.net.Nodes[i].Amplify {
				cb.Amplified = true
			}
		}
		occ.Cycles = append(occ.Cycles, cb)
	}
	sort.Slice(occ.Cycles, func(i, j int) bool {
		return strings.Join(occ.Cycles[i].Nodes, ",") < strings.Join(occ.Cycles[j].Nodes, ",")
	})
	p.report.Proofs = append(p.report.Proofs, Proof{
		Subject: "occupancy",
		Property: fmt.Sprintf("bounded: at most %d records in flight graph-wide (%d buffered in links, %d resident in nodes)",
			occ.Total, linkSum, occ.Resident),
	})
}

// finish orders everything deterministically.
func (p *prover) finish() {
	r := p.report
	sort.Slice(r.Proofs, func(i, j int) bool {
		if r.Proofs[i].Subject != r.Proofs[j].Subject {
			return r.Proofs[i].Subject < r.Proofs[j].Subject
		}
		return r.Proofs[i].Property < r.Proofs[j].Property
	})
	byRule := func(fs []Finding) func(i, j int) bool {
		return func(i, j int) bool {
			if fs[i].Rule != fs[j].Rule {
				return fs[i].Rule < fs[j].Rule
			}
			return fs[i].Msg < fs[j].Msg
		}
	}
	sort.SliceStable(r.Findings, byRule(r.Findings))
	sort.SliceStable(r.Warnings, byRule(r.Warnings))
	sort.SliceStable(r.Waived, byRule(r.Waived))
}
