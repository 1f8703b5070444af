package fabric

import (
	"strings"
	"testing"

	"aurochs/internal/analysis/flow"
	"aurochs/internal/record"
)

// The differential suite: every witnessed defect class gets a concrete
// graph builder parameterized by record count. The prover predicts the
// failure on a small build; the replay drives a build sized by the
// witness and asserts the engine fails exactly as predicted.

func flowRecs(n int, count uint32) []record.Rec {
	out := make([]record.Rec, n)
	for i := range out {
		out[i] = record.Make(uint32(i), count)
	}
	return out
}

func decCount(r *record.Rec) {
	if c := r.Get(1); c > 0 {
		r.Put(1, c-1)
	}
}

func exitWhenZero(r *record.Rec) int {
	if r.Get(1) == 0 {
		return 0
	}
	return 1
}

// undersizedSpinLoop has no exit at all: every record circulates forever.
func undersizedSpinLoop(n int) *Graph {
	g := NewGraph()
	ext, body, recirc := g.Link("ext"), g.Link("body"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 1), ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewMap("spin", decCount, body, recirc).Cyclic())
	return g
}

// swappedLoopMerge wires NewLoopMerge with its recirc and ext arguments
// reversed — the classic bug DiagLoopEntryMiswired catches statically.
// Records carry count 3 so each laps the loop before exiting.
func swappedLoopMerge(n int) *Graph {
	g := NewGraph()
	ext, body, dec, exit, recirc := g.Link("ext"), g.Link("body"), g.Link("dec"),
		g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 3), ext))
	g.Add(NewLoopMerge("entry", ext, recirc, body, ctl)) // swapped!
	g.Add(NewMap("dec", decCount, body, dec).Cyclic())
	g.Add(NewFilter("exit?", exitWhenZero, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	g.Add(NewSink("snk", exit))
	return g
}

// nilCtlExit declares an exit port on a filter that carries no loop
// control: records leave but are never counted out.
func nilCtlExit(n int) *Graph {
	g := NewGraph()
	ext, body, dec, exit, recirc := g.Link("ext"), g.Link("body"), g.Link("dec"),
		g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 1), ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewMap("dec", decCount, body, dec).Cyclic())
	g.Add(NewFilter("exit?", exitWhenZero, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, nil)) // no ctl: exits uncounted
	g.Add(NewSink("snk", exit))
	return g
}

// uncountedSideEntry feeds a second source into a plain merge inside the
// loop, bypassing the counted entry. Check cannot see this — the cycle
// has a correctly oriented loop entry — but the exits of the smuggled
// records drive the in-flight count below zero.
func uncountedSideEntry(n int) *Graph {
	g := NewGraph()
	ext, sneak, merged, body, dec, exit, recirc := g.Link("ext"), g.Link("sneak"),
		g.Link("merged"), g.Link("body"), g.Link("dec"), g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 1), ext))
	g.Add(NewSource("side", flowRecs(n, 1), sneak))
	g.Add(NewLoopMerge("entry", recirc, ext, merged, ctl))
	g.Add(NewMerge("mix", merged, sneak, body).Cyclic())
	g.Add(NewMap("dec", decCount, body, dec).Cyclic())
	g.Add(NewFilter("exit?", exitWhenZero, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	g.Add(NewSink("snk", exit))
	return g
}

// exitBlockedChain drains loop A's counted exit into loop B, which has no
// exit of its own: A's exits exist but cannot relieve pressure.
func exitBlockedChain(n int) *Graph {
	g := NewGraph()
	ext, aBody, aDec, handoff, aRec := g.Link("ext"), g.Link("a.body"),
		g.Link("a.dec"), g.Link("handoff"), g.Link("a.recirc")
	bBody, bRec := g.Link("b.body"), g.Link("b.recirc")
	actl, bctl := NewLoopCtl(), NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 1), ext))
	g.Add(NewLoopMerge("a.entry", aRec, ext, aBody, actl))
	g.Add(NewMap("a.dec", decCount, aBody, aDec).Cyclic())
	g.Add(NewFilter("a.exit?", exitWhenZero, aDec, []Output{
		{Link: handoff, Exit: true},
		{Link: aRec, NoEOS: true},
	}, actl))
	g.Add(NewLoopMerge("b.entry", bRec, handoff, bBody, bctl))
	g.Add(NewMap("b.spin", decCount, bBody, bRec).Cyclic())
	return g
}

// chainedCleanLoops is the positive control: two well-formed countdown
// loops in sequence, proving clean and draining at any record count.
func chainedCleanLoops(n int) *Graph {
	g := NewGraph()
	ext, aBody, aDec, handoff, aRec := g.Link("ext"), g.Link("a.body"),
		g.Link("a.dec"), g.Link("handoff"), g.Link("a.recirc")
	bBody, bDec, out, bRec := g.Link("b.body"), g.Link("b.dec"), g.Link("out"), g.Link("b.recirc")
	actl, bctl := NewLoopCtl(), NewLoopCtl()
	g.Add(NewSource("src", flowRecs(n, 2), ext))
	g.Add(NewLoopMerge("a.entry", aRec, ext, aBody, actl))
	g.Add(NewMap("a.dec", decCount, aBody, aDec).Cyclic())
	g.Add(NewFilter("a.exit?", func(r *record.Rec) int {
		if r.Get(1) <= 1 {
			return 0
		}
		return 1
	}, aDec, []Output{
		{Link: handoff, Exit: true},
		{Link: aRec, NoEOS: true},
	}, actl))
	g.Add(NewLoopMerge("b.entry", bRec, handoff, bBody, bctl))
	g.Add(NewMap("b.dec", decCount, bBody, bDec).Cyclic())
	g.Add(NewFilter("b.exit?", exitWhenZero, bDec, []Output{
		{Link: out, Exit: true},
		{Link: bRec, NoEOS: true},
	}, bctl))
	g.Add(NewSink("snk", out))
	return g
}

func flowFinding(t *testing.T, rep *flow.Report, rule string) *flow.Finding {
	t.Helper()
	var first *flow.Finding
	for i := range rep.Findings {
		if rep.Findings[i].Rule != rule {
			continue
		}
		if rep.Findings[i].Witness != nil {
			return &rep.Findings[i]
		}
		if first == nil {
			first = &rep.Findings[i]
		}
	}
	if first != nil {
		return first
	}
	t.Fatalf("prover missed %s:\n%s", rule, rep)
	return nil
}

// TestFlowWitnessReplay is the prover-vs-simulator differential: for each
// known-wedging topology, the prover's witness — mode, injection count,
// blocked set — must reproduce against a real run.
func TestFlowWitnessReplay(t *testing.T) {
	cases := []struct {
		name  string
		build func(int) *Graph
		rule  string
		mode  flow.WitnessMode
	}{
		{"no-exit-spin", undersizedSpinLoop, flow.RuleNoExit, flow.WedgeWitness},
		{"swapped-loop-merge", swappedLoopMerge, flow.RuleEntryMiswired, flow.StallWitness},
		{"nil-ctl-exit", nilCtlExit, flow.RuleUncountedExit, flow.StallWitness},
		{"uncounted-side-entry", uncountedSideEntry, flow.RuleUncountedEntry, flow.UnderflowWitness},
		{"exit-blocked-chain", exitBlockedChain, flow.RuleExitBlocked, flow.WedgeWitness},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.build(8).ProveFlow()
			f := flowFinding(t, rep, tc.rule)
			w := f.Witness
			if w == nil {
				t.Fatalf("%s finding has no witness: %s", tc.rule, f.Msg)
			}
			if w.Mode != tc.mode {
				t.Fatalf("witness mode = %s, want %s", w.Mode, tc.mode)
			}
			n := w.Inject
			if n < 8 {
				n = 8
			}
			if err := ReplayWitness(tc.build(n), w); err != nil {
				t.Fatalf("witness did not reproduce: %v", err)
			}
		})
	}
}

// TestFlowCleanLoopsProveAndDrain is the positive control: the chained
// loops prove deadlock-free and then actually drain — including at the
// same record count a wedge witness would inject.
func TestFlowCleanLoopsProveAndDrain(t *testing.T) {
	g := chainedCleanLoops(8)
	rep, err := g.Prove()
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("clean loops rejected:\n%s", rep)
	}
	if rep.Flow == nil || !rep.Flow.DeadlockFree() {
		t.Fatalf("flow report missing or unclean:\n%v", rep.Flow)
	}
	n := rep.Flow.Occupancy.Total + 2*record.NumLanes
	g2 := chainedCleanLoops(n)
	if _, err := g2.Run(int64(400 * n)); err != nil {
		t.Fatalf("clean loops wedged with %d records: %v", n, err)
	}
}

// TestFlowReplayRejectsWrongPrediction: a witness predicting a wedge on a
// healthy graph must be reported as a divergence, not silently pass.
func TestFlowReplayRejectsWrongPrediction(t *testing.T) {
	w := &flow.Witness{Rule: flow.RuleNoExit, Mode: flow.WedgeWitness,
		Inject: 8, Blocked: []string{"a.entry"}}
	err := ReplayWitness(chainedCleanLoops(8), w)
	if err == nil || !strings.Contains(err.Error(), "predicted a deadlock") {
		t.Fatalf("replay accepted a wrong prediction: %v", err)
	}
}

// TestFlowNetLowering spot-checks the Graph → flow.Net lowering on the
// canonical loop: kinds, loop-entry marking, ctl identity, exit ports.
func TestFlowNetLowering(t *testing.T) {
	g := nilCtlExit(8)
	net := g.FlowNet()
	byName := map[string]*flow.Node{}
	for i := range net.Nodes {
		byName[net.Nodes[i].Name] = &net.Nodes[i]
	}
	if n := byName["src"]; n.Kind != flow.SourceKind || n.Supply != 8 {
		t.Fatalf("src lowered as %v supply %d", n.Kind, n.Supply)
	}
	entry := byName["entry"]
	if entry.Kind != flow.MergeKind || !entry.LoopEntry || entry.Ctl < 0 {
		t.Fatalf("entry lowered as %+v", entry)
	}
	if entry.Pri < 0 || net.Edges[entry.Pri].Name != "recirc" {
		t.Fatalf("entry.Pri = %d, want the recirc edge", entry.Pri)
	}
	if entry.Sec < 0 || net.Edges[entry.Sec].Name != "ext" {
		t.Fatalf("entry.Sec = %d, want the ext edge", entry.Sec)
	}
	exitf := byName["exit?"]
	if exitf.Kind != flow.FilterKind || exitf.Ctl != -1 || exitf.CanKill {
		t.Fatalf("ctl-less filter lowered as %+v", exitf)
	}
	var sawExitPort bool
	for _, p := range exitf.Out {
		if p.Exit && p.Edge >= 0 && net.Edges[p.Edge].Name == "exit" {
			sawExitPort = true
		}
	}
	if !sawExitPort {
		t.Fatalf("filter's Exit output not lowered: %+v", exitf.Out)
	}
}
