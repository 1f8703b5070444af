package fabric

import (
	"fmt"
	"sort"
	"strings"

	"aurochs/internal/sim"
)

// This file is the static half of aurochs-vet: Graph.Check verifies a wired
// dataflow graph before the first cycle ticks. The properties it enforces
// are exactly the ones that otherwise surface as a deadlock thousands of
// cycles in (a link nobody drains, a cycle with no drain protocol) or as a
// silent panic (a push to a zero-capacity link): every link must have
// exactly one producer and one consumer among the registered components,
// every cycle must carry a loop-entry Merge implementing the §III-A drain
// protocol, and every DRAM-backed node must sit on a graph with HBM
// attached.
//
// Topology is reconstructed through the optional sim.InputPorts /
// sim.OutputPorts interfaces; components implementing neither (the HBM
// clock adapter) are treated as link-free.

// DiagCode classifies one class of structural defect.
type DiagCode string

// The defect classes Check distinguishes. Each malformed-graph test in
// check_test.go asserts one of these.
const (
	// DiagNilLink: a component's port list contains a nil link.
	DiagNilLink DiagCode = "nil-link"
	// DiagOrphanLink: a link no registered component produces or consumes.
	DiagOrphanLink DiagCode = "orphan-link"
	// DiagNoProducer: a link is consumed but nothing pushes it.
	DiagNoProducer DiagCode = "no-producer"
	// DiagNoConsumer: a link is produced but nothing pops it.
	DiagNoConsumer DiagCode = "no-consumer"
	// DiagMultiProducer: several components push one link (fan-in without a
	// Merge).
	DiagMultiProducer DiagCode = "multi-producer"
	// DiagMultiConsumer: several components pop one link.
	DiagMultiConsumer DiagCode = "multi-consumer"
	// DiagZeroCapacity: a link with capacity < 1 can never accept a flit.
	DiagZeroCapacity DiagCode = "zero-capacity"
	// DiagBadLatency: links are registered; latency must be >= 1.
	DiagBadLatency DiagCode = "bad-latency"
	// DiagDupNode: the same component was added twice.
	DiagDupNode DiagCode = "dup-node"
	// DiagDupName: two components share a name (stats would alias).
	DiagDupName DiagCode = "dup-name"
	// DiagNoHBM: a DRAM-backed node on a graph without AttachHBM.
	DiagNoHBM DiagCode = "no-hbm"
	// DiagNoLoopCtl: a cycle with no loop-entry Merge (NewLoopMerge) to run
	// the drain protocol.
	DiagNoLoopCtl DiagCode = "cycle-no-loopctl"
	// DiagLoopEntryMiswired: a NewLoopMerge whose priority (recirculating)
	// input is not fed from its own cycle, or whose external input is —
	// the classic swapped-argument bug. The drain protocol counts entries
	// on the wrong stream, so Inflight never returns to zero and the
	// stream-end token never enters the loop: provable deadlock.
	DiagLoopEntryMiswired DiagCode = "loop-entry-miswired"
)

// Diag is one verification finding.
type Diag struct {
	Code DiagCode
	Msg  string
}

func (d Diag) String() string { return string(d.Code) + ": " + d.Msg }

// CheckError aggregates every finding from one Check pass, sorted by code
// then message so output is deterministic.
type CheckError struct {
	Diags []Diag
}

func (e *CheckError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: graph check failed (%d problems)", len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// Has reports whether any finding carries the given code — test helper and
// programmatic triage.
func (e *CheckError) Has(code DiagCode) bool {
	for _, d := range e.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// linkEnds records which components (by index) claim a link.
type linkEnds struct {
	producers []int
	consumers []int
	eos       bool // the link can carry end-of-stream (drainroles.go)
}

// attribute deduplicates the registered components and attributes every
// link to the components producing and consuming it, by index into the
// deduplicated list, so a double-added node is one node rather than a
// phantom fan-in. A component listing the same link twice on one side
// counts once. Duplicate registrations and nil ports are skipped and
// returned as diagnostics: Check reports them, FlowNet and ProveWith
// (which run on checked or deliberately unchecked graphs) ignore them.
func (g *Graph) attribute() ([]sim.Component, map[*sim.Link]*linkEnds, []Diag) {
	var diags []Diag
	var comps []sim.Component
	seen := make(map[sim.Component]bool)
	for _, c := range g.Sys.Components() {
		if seen[c] {
			diags = append(diags, Diag{DiagDupNode,
				fmt.Sprintf("node %q added more than once", c.Name())})
			continue
		}
		seen[c] = true
		comps = append(comps, c)
	}
	ends := make(map[*sim.Link]*linkEnds)
	claim := func(c sim.Component, links []*sim.Link, side string, add func(*linkEnds)) {
		claimed := make(map[*sim.Link]bool)
		for _, l := range links {
			if l == nil {
				diags = append(diags, Diag{DiagNilLink,
					fmt.Sprintf("node %q has a nil %s link", c.Name(), side)})
				continue
			}
			if claimed[l] {
				continue
			}
			claimed[l] = true
			e := ends[l]
			if e == nil {
				e = &linkEnds{}
				ends[l] = e
			}
			add(e)
		}
	}
	for i, c := range comps {
		if op, ok := c.(sim.OutputPorts); ok {
			claim(c, op.OutputLinks(), "output", func(e *linkEnds) { e.producers = append(e.producers, i) })
		}
		if ip, ok := c.(sim.InputPorts); ok {
			claim(c, ip.InputLinks(), "input", func(e *linkEnds) { e.consumers = append(e.consumers, i) })
		}
	}
	return comps, ends, diags
}

// Check statically verifies the wired graph and returns a *CheckError
// listing every defect found, or nil when the topology is sound. Run calls
// it automatically; call it directly to validate a graph without
// simulating. Check also installs each loop's admission bound, derived
// from its ring (admission.go), and each node's drain role, derived from
// which links can carry end-of-stream (drainroles.go), so a graph started
// with Sys.Run after Check runs exactly as Run would run it.
func (g *Graph) Check() error {
	diags := append([]Diag(nil), g.defects...)

	comps, ends, regDiags := g.attribute()
	diags = append(diags, regDiags...)

	nameCount := make(map[string]int)
	for _, c := range comps {
		nameCount[c.Name()]++
	}
	var dupNames []string
	for name, n := range nameCount {
		if n > 1 {
			dupNames = append(dupNames, name)
		}
	}
	sort.Strings(dupNames)
	for _, name := range dupNames {
		diags = append(diags, Diag{DiagDupName,
			fmt.Sprintf("%d components share the name %q", nameCount[name], name)})
	}

	names := func(idx []int) string {
		out := make([]string, len(idx))
		for i, k := range idx {
			out[i] = comps[k].Name()
		}
		sort.Strings(out)
		return strings.Join(out, ", ")
	}

	for _, l := range g.Sys.Links() {
		if l.Capacity() < 1 {
			diags = append(diags, Diag{DiagZeroCapacity,
				fmt.Sprintf("link %q has capacity %d; nothing can ever be pushed", l.Name(), l.Capacity())})
		}
		if l.Latency() < 1 {
			diags = append(diags, Diag{DiagBadLatency,
				fmt.Sprintf("link %q has latency %d; links are registered and need latency >= 1", l.Name(), l.Latency())})
		}
		e := ends[l]
		if e == nil || (len(e.producers) == 0 && len(e.consumers) == 0) {
			diags = append(diags, Diag{DiagOrphanLink,
				fmt.Sprintf("link %q is not connected to any registered node", l.Name())})
			continue
		}
		if len(e.producers) == 0 {
			diags = append(diags, Diag{DiagNoProducer,
				fmt.Sprintf("link %q is consumed by [%s] but has no producer — was the producing node registered with Graph.Add?",
					l.Name(), names(e.consumers))})
		}
		if len(e.consumers) == 0 {
			diags = append(diags, Diag{DiagNoConsumer,
				fmt.Sprintf("link %q is fed by [%s] but has no consumer — was the consuming node registered with Graph.Add?",
					l.Name(), names(e.producers))})
		}
		if len(e.producers) > 1 {
			diags = append(diags, Diag{DiagMultiProducer,
				fmt.Sprintf("link %q is pushed by %d nodes [%s]; fan-in requires a Merge",
					l.Name(), len(e.producers), names(e.producers))})
		}
		if len(e.consumers) > 1 {
			diags = append(diags, Diag{DiagMultiConsumer,
				fmt.Sprintf("link %q is popped by %d nodes [%s]; fan-out requires a Fork or explicit duplication",
					l.Name(), len(e.consumers), names(e.consumers))})
		}
	}

	diags = append(diags, g.checkCycles(comps, ends)...)
	deriveDrainRoles(comps, ends)
	diags = append(diags, g.checkSchemas(comps, ends)...)
	diags = append(diags, g.checkReorder(comps)...)

	if len(diags) == 0 {
		return nil
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Code != diags[j].Code {
			return diags[i].Code < diags[j].Code
		}
		return diags[i].Msg < diags[j].Msg
	})
	return &CheckError{Diags: diags}
}

// checkCycles finds strongly connected components of the node graph and
// requires each non-trivial one (a recirculating pipeline) to contain a
// loop-entry Merge: without the drain protocol, end-of-stream can never
// leave the cycle and the simulation deadlocks after the work is done.
// From the same rings it arms every loop's admission bound (admission.go).
func (g *Graph) checkCycles(comps []sim.Component, ends map[*sim.Link]*linkEnds) []Diag {
	n := len(comps)
	adj := make([][]int32, n)
	selfLoop := make([]bool, n)
	// Links() is creation-ordered, so edge lists — and therefore SCC
	// numbering — are deterministic.
	for _, l := range g.Sys.Links() {
		e := ends[l]
		if e == nil {
			continue
		}
		for _, p := range e.producers {
			for _, c := range e.consumers {
				if p == c {
					selfLoop[p] = true
				}
				adj[p] = append(adj[p], int32(c))
			}
		}
	}
	// The same iterative Tarjan the token-flow prover condenses with.
	of, count := sim.StronglyConnected(adj)
	sccs := make([][]int, count)
	for i, k := range of {
		sccs[k] = append(sccs[k], i) // ascending i keeps members sorted
	}

	var diags []Diag
	inCycle := make([]int, n) // 1+scc ordinal when the node is on a real cycle
	for si, scc := range sccs {
		if len(scc) == 1 && !selfLoop[scc[0]] {
			continue
		}
		for _, i := range scc {
			inCycle[i] = si + 1
		}
		entry := false
		for _, i := range scc {
			if m, ok := comps[i].(*Merge); ok && m.loopEntry() {
				entry = true
				break
			}
		}
		if entry {
			continue
		}
		member := make([]string, len(scc))
		for i, k := range scc {
			member[i] = comps[k].Name()
		}
		sort.Strings(member)
		diags = append(diags, Diag{DiagNoLoopCtl,
			fmt.Sprintf("cycle through [%s] has no loop-entry Merge (NewLoopMerge); end-of-stream can never drain it",
				strings.Join(member, ", "))})
	}
	diags = append(diags, g.checkLoopEntries(comps, ends, inCycle)...)
	g.armAdmission(comps, ends, inCycle, len(sccs))
	return diags
}

// checkLoopEntries proves each NewLoopMerge is wired the way the drain
// protocol assumes: the priority input recirculates (its producer is on the
// merge's own cycle) and the secondary input is external (its producer is
// not). Swapping the two arguments compiles and even moves data, but the
// in-flight count then tracks the wrong stream, Inflight never returns to
// zero, and the stream-end token never enters the loop — a deadlock that is
// provable here at build time.
func (g *Graph) checkLoopEntries(comps []sim.Component, ends map[*sim.Link]*linkEnds, inCycle []int) []Diag {
	var diags []Diag
	producerIn := func(l *sim.Link, scc int) (bool, bool) {
		e := ends[l]
		if e == nil || len(e.producers) != 1 {
			return false, false // unattributable; covered by producer diags
		}
		return true, inCycle[e.producers[0]] == scc
	}
	for i, c := range comps {
		m, ok := c.(*Merge)
		if !ok || !m.loopEntry() {
			continue
		}
		scc := inCycle[i]
		if scc == 0 {
			diags = append(diags, Diag{DiagLoopEntryMiswired,
				fmt.Sprintf("loop-entry merge %q (NewLoopMerge) is not on any cycle; its drain protocol waits on a recirculating path that does not exist",
					m.Name())})
			continue
		}
		if known, in := producerIn(m.pri, scc); known && !in {
			diags = append(diags, Diag{DiagLoopEntryMiswired,
				fmt.Sprintf("loop-entry merge %q: priority input %q is fed from outside the cycle — the recirculating link must be the first argument of NewLoopMerge",
					m.Name(), m.pri.Name())})
		}
		if known, in := producerIn(m.sec, scc); known && in {
			diags = append(diags, Diag{DiagLoopEntryMiswired,
				fmt.Sprintf("loop-entry merge %q: external input %q is fed from its own cycle — the external link must be the second argument of NewLoopMerge",
					m.Name(), m.sec.Name())})
		}
	}
	return diags
}
