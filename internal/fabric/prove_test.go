package fabric

import (
	"strings"
	"testing"

	"aurochs/internal/analysis/flow"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// countdownLoop wires the canonical recirculating pipeline with mkLink
// supplying every link, so tests can vary provisioning without repeating
// the topology. swap reverses the NewLoopMerge recirc/ext arguments to
// seed the miswire defect.
func countdownLoop(g *Graph, mkLink func(string) *sim.Link, swap bool) *Sink {
	ext, body, dec, exit, recirc :=
		mkLink("ext"), mkLink("body"), mkLink("dec"), mkLink("exit"), mkLink("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", []record.Rec{record.Make(0, 3), record.Make(1, 5)}, ext))
	if swap {
		g.Add(NewLoopMerge("entry", ext, recirc, body, ctl))
	} else {
		g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	}
	g.Add(NewMap("dec", func(r *record.Rec) {
		if c := r.Get(1); c > 0 {
			r.Put(1, c-1)
		}
	}, body, dec).Cyclic())
	g.Add(NewFilter("exit?", func(r *record.Rec) int {
		if r.Get(1) == 0 {
			return 0
		}
		return 1
	}, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	snk := NewSink("snk", exit)
	g.Add(snk)
	return snk
}

// TestProveWellProvisionedLoop: at the default capacity/latency every
// obligation is proven — full line rate on each link, credit sufficiency,
// deadlock freedom and drain around the cycle, and the occupancy bound —
// with zero warnings.
func TestProveWellProvisionedLoop(t *testing.T) {
	g := NewGraph()
	countdownLoop(g, g.Link, false)
	report, err := g.Prove()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("default provisioning should prove clean:\n%s", report)
	}
	// 5 line-rate proofs, 3 cycle proofs (credit-sufficient, deadlock-free,
	// loop-drain), and the occupancy bound.
	if len(report.Proofs) != 9 {
		t.Fatalf("want 9 proofs, got %d:\n%s", len(report.Proofs), report)
	}
	var sawCycle bool
	for _, p := range report.Proofs {
		if strings.HasPrefix(p.Subject, "cycle [") &&
			strings.Contains(p.Property, "credit-sufficient") {
			sawCycle = true
		}
	}
	if !sawCycle {
		t.Fatalf("no credit-sufficiency proof for the cycle:\n%s", report)
	}
}

// TestProveUnderProvisionedLoop: the seeded violation — every link at
// capacity 1 with latency 1 — is caught as both a per-link line-rate
// warning and a cycle credit-starvation warning, while the graph remains
// structurally sound (Check passes) and still drains when run.
func TestProveUnderProvisionedLoop(t *testing.T) {
	g := NewGraph()
	mk := func(name string) *sim.Link { return g.Sys.NewLink(name, 1, 1) }
	snk := countdownLoop(g, mk, false)

	report, err := g.Prove()
	if err != nil {
		t.Fatalf("under-provisioning must not be a structural error: %v", err)
	}
	lineRate, starved := 0, 0
	for _, w := range report.Warnings {
		switch string(w.Code) {
		case flow.RuleLineRate:
			lineRate++
		case flow.RuleCreditStarved:
			starved++
		}
	}
	if lineRate != 5 {
		t.Errorf("want 5 line-rate warnings (one per link), got %d:\n%s", lineRate, report)
	}
	if starved != 1 {
		t.Errorf("want 1 credit-starved warning for the cycle, got %d:\n%s", starved, report)
	}
	if len(report.Warnings) != lineRate+starved {
		t.Errorf("under-provisioning raised other warnings:\n%s", report)
	}
	// The warnings are performance facts, not deadlocks: the loop drains.
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatalf("starved loop must still drain: %v", err)
	}
	if snk.Count() != 2 {
		t.Fatalf("exits=%d, want 2", snk.Count())
	}
}

// TestProveAcyclicPipeline: a straight-line graph yields the acyclicity
// proof and no cycle obligations.
func TestProveAcyclicPipeline(t *testing.T) {
	g := NewGraph()
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", []record.Rec{record.Make(0, 0)}, in))
	g.Add(NewMap("id", func(r *record.Rec) {}, in, out))
	g.Add(NewSink("snk", out))
	report, err := g.Prove()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("acyclic default-provisioned graph should be clean:\n%s", report)
	}
	found := false
	for _, p := range report.Proofs {
		if p.Subject == "token-flow" && strings.Contains(p.Property, "acyclic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing acyclicity proof:\n%s", report)
	}
}

// TestCheckRejectsSwappedLoopMerge: reversing the recirc/ext arguments of
// NewLoopMerge is the provable-deadlock topology DiagLoopEntryMiswired
// exists for — the drain protocol counts entries on the wrong stream, so
// it must be rejected before the first cycle ticks.
func TestCheckRejectsSwappedLoopMerge(t *testing.T) {
	g := NewGraph()
	countdownLoop(g, g.Link, true)
	err := g.Check()
	ce, ok := err.(*CheckError)
	if !ok {
		t.Fatalf("swapped loop merge must fail Check, got %v", err)
	}
	if !ce.Has(DiagLoopEntryMiswired) {
		t.Fatalf("want %s, got:\n%v", DiagLoopEntryMiswired, err)
	}
	// Prove refuses to issue proofs about an unsound graph.
	if report, perr := g.Prove(); perr == nil {
		t.Fatalf("Prove accepted a miswired graph:\n%s", report)
	}
}

// TestCheckRejectsAcyclicLoopMerge: a NewLoopMerge whose cycle never
// closed (the recirculating producer was left out) waits forever on an
// impossible drain; Check names the defect directly instead of leaving a
// bare no-producer to puzzle over.
func TestCheckRejectsAcyclicLoopMerge(t *testing.T) {
	g := NewGraph()
	ext, body, exit, recirc := g.Link("ext"), g.Link("body"), g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", []record.Rec{record.Make(0, 0)}, ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	// The filter routes everything out: recirc has no producer, the loop
	// never closes.
	g.Add(NewFilter("exit?", func(r *record.Rec) int { return 0 }, body, []Output{
		{Link: exit, Exit: true},
	}, ctl))
	g.Add(NewSink("snk", exit))
	_ = recirc
	err := g.Check()
	ce, ok := err.(*CheckError)
	if !ok {
		t.Fatalf("acyclic loop merge must fail Check, got %v", err)
	}
	if !ce.Has(DiagLoopEntryMiswired) {
		t.Fatalf("want %s, got:\n%v", DiagLoopEntryMiswired, err)
	}
}
