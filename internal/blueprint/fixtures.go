package blueprint

import (
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// Fixtures are deliberately shaped topologies for exercising the token-flow
// prover (internal/analysis/flow) end to end: a negative fixture the prover
// must reject — and whose wedge witness must reproduce against the real
// simulator — and a positive fixture it must pass. aurochs-vet's -fixture
// flag vets one by name, which is how CI keeps a live negative gate on the
// flow analyzer without shipping a broken blueprint in the registry.

// Fixture is one registered prover-exercise topology.
type Fixture struct {
	// Name identifies the fixture ("flowbad").
	Name string
	// Doc says what the topology demonstrates.
	Doc string
	// Wedges is true when the flow prover must reject the graph and its
	// witness must replay to a real failure; false when it must prove clean.
	Wedges bool
	// Build wires the fixture at its default record count.
	Build func() (*fabric.Graph, error)
	// BuildN wires the fixture with n external records — replay harnesses
	// size the input from the witness's Inject count.
	BuildN func(n int) (*fabric.Graph, error)
}

// countRecs returns n [id, count] records for the countdown loops.
func countRecs(n int, count uint32) []record.Rec {
	out := make([]record.Rec, n)
	for i := range out {
		out[i] = record.Make(uint32(i), count)
	}
	return out
}

// flowbad wires a loop with no exit: a LoopMerge correctly oriented, a body
// that recirculates every record, and nothing that ever counts a thread
// out. Structurally sound — Graph.Check passes — but every injected record
// stays in the ring forever, so enough of them saturate the cycle's credit
// and the run can never complete. The prover's flow-no-exit wedge witness
// says exactly how many records that takes.
func flowbad(n int) (*fabric.Graph, error) {
	g := fabric.NewGraph()
	s := record.NewSchema("id", "count")
	ext, body, recirc := g.Link("ext"), g.Link("body"), g.Link("recirc")
	ctl := fabric.NewLoopCtl()
	g.Add(fabric.NewSource("src", countRecs(n, 1), ext).Typed(s))
	g.Add(fabric.NewLoopMerge("entry", recirc, ext, body, ctl).Typed(s, s, s))
	g.Add(fabric.NewMap("spin", func(r *record.Rec) {
		if c := r.Get(1); c > 0 {
			r.Put(1, c-1)
		}
	}, body, recirc).Typed(s, s))
	return g, nil
}

// flowclean chains two well-formed countdown loops: counted entries,
// counted exits, the second loop draining the first's output. The flow
// prover must pass it with zero findings and a finite occupancy bound.
func flowclean(n int) (*fabric.Graph, error) {
	g := fabric.NewGraph()
	s := record.NewSchema("id", "count")
	dec := func(r *record.Rec) {
		if c := r.Get(1); c > 0 {
			r.Put(1, c-1)
		}
	}
	ext, aBody, aDec, handoff, aRec := g.Link("ext"), g.Link("a.body"),
		g.Link("a.dec"), g.Link("handoff"), g.Link("a.recirc")
	bBody, bDec, out, bRec := g.Link("b.body"), g.Link("b.dec"), g.Link("out"), g.Link("b.recirc")
	actl, bctl := fabric.NewLoopCtl(), fabric.NewLoopCtl()
	g.Add(fabric.NewSource("src", countRecs(n, 2), ext).Typed(s))
	g.Add(fabric.NewLoopMerge("a.entry", aRec, ext, aBody, actl).Typed(s, s, s))
	g.Add(fabric.NewMap("a.dec", dec, aBody, aDec).Typed(s, s))
	g.Add(fabric.NewFilter("a.exit?", func(r *record.Rec) int {
		if r.Get(1) <= 1 {
			return 0
		}
		return 1
	}, aDec, []fabric.Output{
		{Link: handoff, Exit: true},
		{Link: aRec, NoEOS: true},
	}, actl).Typed(s))
	g.Add(fabric.NewLoopMerge("b.entry", bRec, handoff, bBody, bctl).Typed(s, s, s))
	g.Add(fabric.NewMap("b.dec", dec, bBody, bDec).Typed(s, s))
	g.Add(fabric.NewFilter("b.exit?", func(r *record.Rec) int {
		if r.Get(1) == 0 {
			return 0
		}
		return 1
	}, bDec, []fabric.Output{
		{Link: out, Exit: true},
		{Link: bRec, NoEOS: true},
	}, bctl).Typed(s))
	g.Add(fabric.NewSink("snk", out).Typed(s))
	return g, nil
}

// Fixtures returns the registered fixtures in deterministic order.
func Fixtures() []Fixture {
	return []Fixture{
		{
			Name:   "flowbad",
			Doc:    "recirculating loop with no exit: structurally sound, provably wedges once saturated",
			Wedges: true,
			Build:  func() (*fabric.Graph, error) { return flowbad(8) },
			BuildN: flowbad,
		},
		{
			Name:   "flowclean",
			Doc:    "two chained countdown loops with counted entries and exits: proves deadlock-free",
			Wedges: false,
			Build:  func() (*fabric.Graph, error) { return flowclean(8) },
			BuildN: flowclean,
		},
	}
}

// FixtureByName returns the named fixture, or nil.
func FixtureByName(name string) *Fixture {
	for _, fx := range Fixtures() {
		if fx.Name == name {
			fx := fx
			return &fx
		}
	}
	return nil
}
