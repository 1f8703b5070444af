package fabric

import (
	"errors"
	"strings"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// conformanceCase pairs a graph builder with its name for the idle/wake
// contract sweeps below.
type conformanceCase struct {
	name  string
	build func(t *testing.T) *Graph
}

// conformanceCases: every fabric component type, driven solo or in the
// smallest graph that exercises it.
func conformanceCases() []conformanceCase {
	key := func(r record.Rec) uint64 { return uint64(r.Get(0)) }
	recs := func(n int) []record.Rec {
		out := make([]record.Rec, n)
		for i := range out {
			out[i] = record.Make(uint32(i), uint32(i%5))
		}
		return out
	}
	return []conformanceCase{
		{"source-map-sink", func(t *testing.T) *Graph {
			g := NewGraph()
			in, out := g.Link("in"), g.Link("out")
			g.Add(NewSource("src", recs(100), in))
			g.Add(NewMap("id", func(r *record.Rec) { *r = r.Set(1, r.Get(1)+1) }, in, out))
			g.Add(NewSink("snk", out))
			return g
		}},
		{"merge", func(t *testing.T) *Graph {
			g := NewGraph()
			a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
			g.Add(NewSource("srcA", recs(64), a))
			g.Add(NewSource("srcB", recs(64), b))
			g.Add(NewMerge("m", a, b, out))
			g.Add(NewSink("snk", out))
			return g
		}},
		{"fork-filter", func(t *testing.T) *Graph {
			g := NewGraph()
			in, mid, out := g.Link("in"), g.Link("mid"), g.Link("out")
			g.Add(NewSource("src", recs(80), in))
			g.Add(NewFork("fork", func(r record.Rec) []record.Rec {
				return []record.Rec{r, r.Set(1, r.Get(1)+100)}
			}, in, mid, nil))
			g.Add(NewFilter("odd?", func(r *record.Rec) int {
				if r.Get(0)%2 == 1 {
					return 0
				}
				return -1
			}, mid, []Output{{Link: out}}, nil))
			g.Add(NewSink("snk", out))
			return g
		}},
		{"countdown-loop", func(t *testing.T) *Graph {
			g := NewGraph()
			countdownLoop(g, g.Link, false)
			return g
		}},
		{"ordered-merge", func(t *testing.T) *Graph {
			g := NewGraph()
			a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
			g.Add(NewSource("srcA", recs(64), a))
			g.Add(NewSource("srcB", recs(64), b))
			g.Add(NewOrderedMerge("om", key, []*sim.Link{a, b}, out))
			g.Add(NewSink("snk", out))
			return g
		}},
		{"merge-join", func(t *testing.T) *Graph {
			g := NewGraph()
			a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
			g.Add(NewSource("srcA", recs(64), a))
			g.Add(NewSource("srcB", recs(64), b))
			g.Add(NewMergeJoin("mj", key, key, func(x, y record.Rec) record.Rec {
				return x.Set(1, y.Get(1))
			}, a, b, out))
			g.Add(NewSink("snk", out))
			return g
		}},
		{"dram-scan-append", func(t *testing.T) *Graph {
			g := newHBMGraph()
			words := make([]uint32, 512)
			for i := range words {
				words[i] = uint32(i)
			}
			g.HBM.LoadWords(1000, words)
			out := g.Link("out")
			NewDRAMScan(g, "scan", []Extent{{Addr: 1000, Words: len(words)}}, 2, out)
			NewDRAMAppend(g, "app", 50000, 2, out)
			return g
		}},
		{"spill-queue", func(t *testing.T) *Graph {
			g := newHBMGraph()
			in, out := g.Link("in"), g.Link("out")
			g.Add(NewSource("src", recs(300), in))
			NewSpillQueue(g, "spill", 60000, 2, 32, in, out)
			// Spill queues sit on cyclic paths and never forward EOS, so
			// the consumer finishes by count.
			g.Add(&slowSink{in: out, want: 300})
			return g
		}},
		{"tree-walk-1block", func(t *testing.T) *Graph {
			g, _ := treeWalkGraph(1)
			return g
		}},
		{"tree-walk-2block", func(t *testing.T) *Graph {
			g, _ := treeWalkGraph(2)
			return g
		}},
	}
}

// TestIdleConformance: each case honours the Idler contract under
// sim.VerifyIdleContract — a Tick behind every Idle=true answer is proven
// to move no data, and the graph still drains. This is the runtime
// counterpart of the tickpurity analyzer: the analyzer proves Idle cannot
// write state, this harness proves the answers are correct.
func TestIdleConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
			if err := sim.VerifyIdleContract(g.Sys, 1_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWakeConformance: the event-scheduler counterpart — on every cycle of
// a run on the wake kernel, each *sleeping* component's Idle answer is
// audited. A component with work no wake event announces (missing WakeHint
// timer, undeclared shared state) is reported by name instead of
// manifesting as a mystery deadlock at scale.
func TestWakeConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
			if err := sim.VerifyWakeContract(g.Sys, 1_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// eagerIdler claims quiescence while it still holds records to emit — the
// exact bug class the conformance harness exists to catch: under the real
// runner the skip would be permanent and the run would deadlock.
type eagerIdler struct {
	name string
	out  *sim.Link
	recs []record.Rec
	eos  bool
}

func (e *eagerIdler) Name() string             { return e.name }
func (e *eagerIdler) Done() bool               { return e.eos }
func (e *eagerIdler) OutputLinks() []*sim.Link { return []*sim.Link{e.out} }
func (e *eagerIdler) Idle(int64) bool          { return true }
func (e *eagerIdler) Tick(cycle int64) {
	if e.eos || !e.out.CanPush() {
		return
	}
	if len(e.recs) > 0 {
		var v record.Vector
		v.Push(e.recs[0])
		e.recs = e.recs[1:]
		e.out.Push(cycle, sim.Flit{Vec: v})
		return
	}
	e.out.Push(cycle, sim.Flit{EOS: true})
	e.eos = true
}

// TestIdleConformanceCatchesEagerIdler: the seeded violation — Idle=true
// with queued work — is reported as an *sim.IdleViolation naming the
// component, not as a mystery deadlock.
func TestIdleConformanceCatchesEagerIdler(t *testing.T) {
	g := NewGraph()
	out := g.Link("out")
	g.Add(&eagerIdler{name: "eager", out: out, recs: []record.Rec{record.Make(1, 2)}})
	g.Add(NewSink("snk", out))
	err := sim.VerifyIdleContract(g.Sys, 10_000)
	var iv *sim.IdleViolation
	if !errors.As(err, &iv) {
		t.Fatalf("want IdleViolation, got %v", err)
	}
	if iv.Component != "eager" || !strings.Contains(iv.What, "moved data") {
		t.Fatalf("violation misattributed: %v", iv)
	}
}
