package flow

import (
	"reflect"
	"strings"
	"testing"
)

// nb builds small nets with the same invariants Graph.FlowNet maintains:
// Pri/Sec/Ctl default to -1 and Out ports mirror the edge list.
type nb struct {
	net Net
}

func newNB(lanes int) *nb { return &nb{net: Net{Lanes: lanes}} }

func (b *nb) node(name string, kind Kind, mut func(*Node)) int {
	n := Node{Name: name, Kind: kind, Ctl: -1, Pri: -1, Sec: -1, Supply: -1}
	if mut != nil {
		mut(&n)
	}
	b.net.Nodes = append(b.net.Nodes, n)
	return len(b.net.Nodes) - 1
}

// edge adds a cap-8/lat-2 link and registers the matching ports.
func (b *nb) edge(name string, from, to int, exit bool) int {
	b.net.Edges = append(b.net.Edges, Edge{Name: name, From: from, To: to, Cap: 8, Lat: 2})
	ei := len(b.net.Edges) - 1
	b.net.Nodes[from].Out = append(b.net.Nodes[from].Out, Port{Edge: ei, Exit: exit})
	b.net.Nodes[to].In = append(b.net.Nodes[to].In, Port{Edge: ei})
	return ei
}

func findRule(t *testing.T, fs []Finding, rule string) *Finding {
	t.Helper()
	for i := range fs {
		if fs[i].Rule == rule {
			return &fs[i]
		}
	}
	t.Fatalf("no %s finding in %+v", rule, fs)
	return nil
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for i := range fs {
		if fs[i].Rule == rule {
			n++
		}
	}
	return n
}

// cleanLoop wires the canonical countdown shape: source -> entry merge ->
// map -> exit filter, with the filter recirculating to the entry.
func cleanLoop() *Net {
	b := newNB(4)
	src := b.node("src", SourceKind, func(n *Node) { n.Supply = 64 })
	entry := b.node("entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 0; n.Resident = 31 })
	dec := b.node("dec", Transform, func(n *Node) { n.Resident = 8 })
	exitf := b.node("exit?", FilterKind, func(n *Node) { n.Ctl = 0; n.CanKill = true; n.Resident = 8 })
	sink := b.node("out", SinkKind, nil)

	ext := b.edge("ext", src, entry, false)
	b.edge("body", entry, dec, false)
	b.edge("dec->exit?", dec, exitf, false)
	b.edge("drained", exitf, sink, true)
	rec := b.edge("recirc", exitf, entry, false)
	b.net.Nodes[entry].Pri, b.net.Nodes[entry].Sec = rec, ext
	return &b.net
}

func TestProveAcyclic(t *testing.T) {
	b := newNB(4)
	src := b.node("src", SourceKind, func(n *Node) { n.Supply = 10 })
	m := b.node("double", Transform, func(n *Node) { n.Resident = 8 })
	sink := b.node("out", SinkKind, nil)
	b.edge("in", src, m, false)
	b.edge("doubled", m, sink, false)

	rep := Prove(&b.net)
	if !rep.DeadlockFree() {
		t.Fatalf("acyclic net not deadlock free: %s", rep)
	}
	found := false
	for _, p := range rep.Proofs {
		if p.Subject == "token-flow" && strings.Contains(p.Property, "acyclic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing acyclic proof: %s", rep)
	}
	// Supply (10) is tighter than capacity (8×4=32) on every link.
	for _, lb := range rep.Occupancy.Links {
		if lb.MaxRecords != 10 {
			t.Fatalf("link %s bound = %d, want supply-clamped 10", lb.Link, lb.MaxRecords)
		}
	}
	if rep.Occupancy.Total != 10+10+8 {
		t.Fatalf("total occupancy = %d, want 28", rep.Occupancy.Total)
	}
}

func TestProveCleanLoop(t *testing.T) {
	rep := Prove(cleanLoop())
	if !rep.DeadlockFree() || len(rep.Warnings) != 0 {
		t.Fatalf("clean loop rejected: %s", rep)
	}
	var wantDeadlock, wantDrain bool
	for _, p := range rep.Proofs {
		if strings.HasPrefix(p.Subject, "cycle [") {
			if strings.Contains(p.Property, "deadlock-free") {
				wantDeadlock = true
			}
			if strings.Contains(p.Property, "loop-drain") {
				wantDrain = true
			}
		}
	}
	if !wantDeadlock || !wantDrain {
		t.Fatalf("missing cycle proofs (deadlock=%v drain=%v): %s", wantDeadlock, wantDrain, rep)
	}
	if len(rep.Occupancy.Cycles) != 1 {
		t.Fatalf("want 1 cycle bound, got %+v", rep.Occupancy.Cycles)
	}
	cb := rep.Occupancy.Cycles[0]
	if want := []string{"dec", "entry", "exit?"}; !reflect.DeepEqual(cb.Nodes, want) {
		t.Fatalf("cycle nodes = %v, want %v", cb.Nodes, want)
	}
	// Three internal cap-8 links at 4 lanes, clamped by supply 64... capacity
	// 32 < 64 so capacity wins: 3×32 links + 31+8+8 resident.
	if cb.MaxRecords != 3*32+47 {
		t.Fatalf("cycle MaxRecords = %d, want %d", cb.MaxRecords, 3*32+47)
	}
	if cb.Slack != 3*(8-2) {
		t.Fatalf("cycle slack = %d, want 18", cb.Slack)
	}
}

func TestProveDeterministic(t *testing.T) {
	a, b := Prove(cleanLoop()), Prove(cleanLoop())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Prove not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestProveNoExit(t *testing.T) {
	b := newNB(4)
	src := b.node("src", SourceKind, func(n *Node) { n.Supply = -1 })
	entry := b.node("entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 0; n.Resident = 31 })
	spin := b.node("spin", Transform, func(n *Node) { n.Resident = 8 })
	ext := b.edge("ext", src, entry, false)
	b.edge("body", entry, spin, false)
	rec := b.edge("recirc", spin, entry, false)
	b.net.Nodes[entry].Pri, b.net.Nodes[entry].Sec = rec, ext

	rep := Prove(&b.net)
	f := findRule(t, rep.Findings, RuleNoExit)
	w := f.Witness
	if w == nil || w.Mode != WedgeWitness {
		t.Fatalf("no-exit witness = %+v, want wedge", w)
	}
	// Inject covers the whole net's capacity plus slack: 3 cap-8 links × 4
	// lanes + 39 resident + 2×4.
	if want := 3*32 + 39 + 8; w.Inject != want {
		t.Fatalf("Inject = %d, want %d", w.Inject, want)
	}
	if want := []string{"body", "recirc"}; !reflect.DeepEqual(w.Fill, want) {
		t.Fatalf("Fill = %v, want %v", w.Fill, want)
	}
	if want := []string{"entry", "spin"}; !reflect.DeepEqual(w.Blocked, want) {
		t.Fatalf("Blocked = %v, want %v", w.Blocked, want)
	}
}

func TestProveElasticCycleStallsNotWedges(t *testing.T) {
	b := newNB(4)
	src := b.node("src", SourceKind, nil)
	entry := b.node("entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 0 })
	spill := b.node("spill", Transform, func(n *Node) { n.Elastic = true })
	ext := b.edge("ext", src, entry, false)
	b.edge("body", entry, spill, false)
	rec := b.edge("recirc", spill, entry, false)
	b.net.Nodes[entry].Pri, b.net.Nodes[entry].Sec = rec, ext

	rep := Prove(&b.net)
	w := findRule(t, rep.Findings, RuleNoExit).Witness
	if w.Mode != StallWitness || w.Fill != nil {
		t.Fatalf("elastic cycle witness = %+v, want stall with no fill", w)
	}
}

func TestProveEntryMiswired(t *testing.T) {
	b := newNB(4)
	src := b.node("src", SourceKind, nil)
	entry := b.node("entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 0 })
	body := b.node("body", FilterKind, func(n *Node) { n.Ctl = 0; n.CanKill = true })
	sink := b.node("out", SinkKind, nil)
	ext := b.edge("ext", src, entry, false)
	b.edge("loop", entry, body, false)
	b.edge("drained", body, sink, true)
	rec := b.edge("recirc", body, entry, false)
	// Swapped: external feed on the priority side, recirculation counted.
	b.net.Nodes[entry].Pri, b.net.Nodes[entry].Sec = ext, rec

	rep := Prove(&b.net)
	if n := countRule(rep.Findings, RuleEntryMiswired); n != 2 {
		t.Fatalf("want 2 miswired findings (pri external, sec internal), got %d: %s", n, rep)
	}
	f := findRule(t, rep.Findings, RuleEntryMiswired)
	if f.Witness != nil && f.Witness.Mode != StallWitness {
		t.Fatalf("miswired witness mode = %s, want stall", f.Witness.Mode)
	}
}

func TestProveUncountedEntry(t *testing.T) {
	net := cleanLoop()
	b := &nb{net: *net}
	side := b.node("side", SourceKind, func(n *Node) { n.Supply = 8 })
	b.edge("sneak", side, 2 /* dec */, false)

	rep := Prove(&b.net)
	w := findRule(t, rep.Findings, RuleUncountedEntry).Witness
	if w == nil || w.Mode != UnderflowWitness {
		t.Fatalf("uncounted entry witness = %+v, want underflow", w)
	}
	if !strings.Contains(w.Explain, "underflow") {
		t.Fatalf("witness should predict the underflow panic: %q", w.Explain)
	}
}

func TestProveUncountedExitNilCtl(t *testing.T) {
	net := cleanLoop()
	// Strip the filter's loop control: its declared exit is no longer
	// counted out.
	net.Nodes[3].Ctl = -1
	net.Nodes[3].CanKill = false

	rep := Prove(net)
	w := findRule(t, rep.Findings, RuleUncountedExit).Witness
	if w == nil || w.Mode != StallWitness {
		t.Fatalf("uncounted exit witness = %+v, want stall", w)
	}
	if want := []string{"entry"}; !reflect.DeepEqual(w.Blocked, want) {
		t.Fatalf("Blocked = %v, want %v", w.Blocked, want)
	}
}

func TestProveCtlMismatch(t *testing.T) {
	net := cleanLoop()
	net.Nodes[3].Ctl = 7 // counts into a control the entry does not use

	rep := Prove(net)
	findRule(t, rep.Findings, RuleCtlMismatch)
	if countRule(rep.Findings, RuleUncountedExit) != 0 {
		t.Fatalf("ctl mismatch should subsume the per-port findings: %s", rep)
	}
}

func TestProveExitBlockedByDownstreamCycle(t *testing.T) {
	b := newNB(4)
	src := b.node("src", SourceKind, nil)
	aEntry := b.node("a.entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 0 })
	aF := b.node("a.exit?", FilterKind, func(n *Node) { n.Ctl = 0; n.CanKill = true })
	bEntry := b.node("b.entry", MergeKind, func(n *Node) { n.LoopEntry = true; n.Ctl = 1 })
	bSpin := b.node("b.spin", Transform, nil)

	ext := b.edge("ext", src, aEntry, false)
	b.edge("a.body", aEntry, aF, false)
	aRec := b.edge("a.recirc", aF, aEntry, false)
	handoff := b.edge("handoff", aF, bEntry, true)
	b.edge("b.body", bEntry, bSpin, false)
	bRec := b.edge("b.recirc", bSpin, bEntry, false)
	b.net.Nodes[aEntry].Pri, b.net.Nodes[aEntry].Sec = aRec, ext
	b.net.Nodes[bEntry].Pri, b.net.Nodes[bEntry].Sec = bRec, handoff

	rep := Prove(&b.net)
	findRule(t, rep.Findings, RuleNoExit) // loop B
	f := findRule(t, rep.Findings, RuleExitBlocked)
	if !strings.Contains(f.Msg, "handoff") {
		t.Fatalf("exit-blocked finding should name the blocked exit: %q", f.Msg)
	}
	if f.Witness == nil || f.Witness.Mode != WedgeWitness {
		t.Fatalf("exit-blocked witness = %+v, want wedge", f.Witness)
	}
}

func TestProveLossyWaiver(t *testing.T) {
	net := cleanLoop()
	net.Nodes[2].Lossy = true // the in-loop transform drops threads

	rep := Prove(net)
	findRule(t, rep.Findings, RuleUncountedExit)

	net.Nodes[2].LossyWaiver = "drops are re-driven by the retry filter"
	rep = Prove(net)
	if !rep.DeadlockFree() {
		t.Fatalf("waived lossy node should prove clean: %s", rep)
	}
	findRule(t, rep.Waived, RuleLossyWaived)
}

func TestProveOpaqueCycleWarns(t *testing.T) {
	net := cleanLoop()
	net.Nodes[2].Kind = Opaque

	rep := Prove(net)
	if !rep.DeadlockFree() {
		t.Fatalf("opaque cycle should abstain (warn), not fail: %s", rep)
	}
	findRule(t, rep.Warnings, RuleOpaqueCycle)
	for _, p := range rep.Proofs {
		if strings.Contains(p.Property, "loop-drain") {
			t.Fatalf("no drain proof may cover an opaque cycle: %s", rep)
		}
	}
}

func TestProveIgnoresMalformedEdges(t *testing.T) {
	net := cleanLoop()
	net.Edges = append(net.Edges, Edge{Name: "wild", From: -3, To: 99, Cap: 8, Lat: 2})
	rep := Prove(net) // must not panic
	if !rep.DeadlockFree() {
		t.Fatalf("malformed edge changed the verdict: %s", rep)
	}
}

func TestProveCtlMismatchSuppressesNoExit(t *testing.T) {
	net := cleanLoop()
	net.Nodes[3].Ctl = 7
	rep := Prove(net)
	if countRule(rep.Findings, RuleNoExit) != 0 {
		t.Fatalf("mismatched exits still relieve pressure; no-exit must not fire: %s", rep)
	}
}

// ring is cleanLoop with the capacities and latencies of its three
// cycle-internal edges (body, dec->exit?, recirc) overridden.
func ring(caps, lats [3]int) *Net {
	net := cleanLoop()
	for i, ei := range []int{1, 2, 4} {
		net.Edges[ei].Cap, net.Edges[ei].Lat = caps[i], lats[i]
	}
	return net
}

// TestProveCreditStarvedRing: a cap-1/lat-1 ring cannot sustain line rate
// on any internal edge, and its cycle is credit-starved — one warning per
// edge and one for the cycle, none of them a failed drain obligation.
func TestProveCreditStarvedRing(t *testing.T) {
	rep := Prove(ring([3]int{1, 1, 1}, [3]int{1, 1, 1}))
	if !rep.DeadlockFree() || len(rep.Warnings) != 4 ||
		countRule(rep.Warnings, RuleLineRate) != 3 || countRule(rep.Warnings, RuleCreditStarved) != 1 {
		t.Fatalf("want 3 line-rate and 1 credit-starved warnings, no findings: %s", rep)
	}
}

// TestProveCreditBoundary: Σcap = Σlat+1 (Slack 1) is exactly enough for
// the cycle and proves credit-sufficient; Σcap = Σlat (Slack 0) warns. In
// a three-edge ring every edge at line rate already gives Slack >= 3, so
// both cases put the deficit on recirc, which warns on its own.
func TestProveCreditBoundary(t *testing.T) {
	// Σlat = 1+1+3 = 5; recirc cap 2 gives Σcap 6, cap 1 gives Σcap 5.
	for _, tc := range []struct{ recircCap, starved int }{{2, 0}, {1, 1}} {
		rep := Prove(ring([3]int{2, 2, tc.recircCap}, [3]int{1, 1, 3}))
		proofs := 0
		for _, p := range rep.Proofs {
			if strings.HasPrefix(p.Property, "credit-sufficient") {
				proofs++
			}
		}
		if countRule(rep.Warnings, RuleCreditStarved) != tc.starved || proofs != 1-tc.starved ||
			countRule(rep.Warnings, RuleLineRate) != 1 {
			t.Errorf("recirc cap %d: want %d credit-starved, %d credit proofs, 1 line-rate: %s",
				tc.recircCap, tc.starved, 1-tc.starved, rep)
		}
	}
}
