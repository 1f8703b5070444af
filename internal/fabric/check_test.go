package fabric

import (
	"errors"
	"strings"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// oneRec is a minimal payload for wiring tests.
var oneRec = []record.Rec{record.Make(1)}

// TestCheckRejectsMalformedGraphs: one deliberately broken graph per defect
// class, each asserting its distinct diagnostic code.
func TestCheckRejectsMalformedGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
		want  DiagCode
	}{
		{
			name: "orphan link",
			want: DiagOrphanLink,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("wired")
				g.Add(NewSource("src", oneRec, l))
				g.Add(NewSink("snk", l))
				g.Link("dangling") // created, never connected
				return g
			},
		},
		{
			name: "no producer",
			want: DiagNoProducer,
			build: func() *Graph {
				g := NewGraph()
				g.Add(NewSink("snk", g.Link("starved")))
				return g
			},
		},
		{
			name: "no consumer: sink never added",
			want: DiagNoConsumer,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("out")
				g.Add(NewSource("src", oneRec, l))
				NewSink("snk", l) // forgot g.Add
				return g
			},
		},
		{
			name: "fan-in without a merge",
			want: DiagMultiProducer,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("shared")
				g.Add(NewSource("a", oneRec, l))
				g.Add(NewSource("b", oneRec, l))
				g.Add(NewSink("snk", l))
				return g
			},
		},
		{
			name: "fan-out without a fork",
			want: DiagMultiConsumer,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("shared")
				g.Add(NewSource("src", oneRec, l))
				g.Add(NewSink("a", l))
				g.Add(NewSink("b", l))
				return g
			},
		},
		{
			name: "zero capacity link",
			want: DiagZeroCapacity,
			build: func() *Graph {
				g := NewGraph()
				l := g.Sys.NewLink("z", 0, 1)
				g.Add(NewSource("src", oneRec, l))
				g.Add(NewSink("snk", l))
				return g
			},
		},
		{
			name: "unregistered link latency",
			want: DiagBadLatency,
			build: func() *Graph {
				g := NewGraph()
				l := g.Sys.NewLink("combinational", 8, 0)
				g.Add(NewSource("src", oneRec, l))
				g.Add(NewSink("snk", l))
				return g
			},
		},
		{
			name: "cycle without a loop merge",
			want: DiagNoLoopCtl,
			build: func() *Graph {
				g := NewGraph()
				a, b := g.Link("a"), g.Link("b")
				g.Add(NewMap("m1", func(r *record.Rec) {}, a, b))
				g.Add(NewMap("m2", func(r *record.Rec) {}, b, a))
				return g
			},
		},
		{
			name: "plain merge does not bless a cycle",
			want: DiagNoLoopCtl,
			build: func() *Graph {
				g := NewGraph()
				ext, body, recirc, exit := g.Link("ext"), g.Link("body"), g.Link("recirc"), g.Link("exit")
				g.Add(NewSource("src", oneRec, ext))
				// NewMerge, not NewLoopMerge: no drain protocol on the cycle.
				g.Add(NewMerge("entry", recirc, ext, body))
				g.Add(NewFilter("exit?", func(r *record.Rec) int { return 0 }, body, []Output{
					{Link: exit, Exit: true},
					{Link: recirc, NoEOS: true},
				}, nil))
				g.Add(NewSink("snk", exit))
				return g
			},
		},
		{
			name: "dram scan without hbm",
			want: DiagNoHBM,
			build: func() *Graph {
				g := NewGraph()
				out := g.Link("out")
				NewDRAMScan(g, "scan", []Extent{{Addr: 0, Words: 64}}, 1, out)
				g.Add(NewSink("snk", out))
				return g
			},
		},
		{
			name: "node added twice",
			want: DiagDupNode,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("l")
				g.Add(NewSource("src", oneRec, l))
				snk := NewSink("snk", l)
				g.Add(snk)
				g.Add(snk)
				return g
			},
		},
		{
			name: "name collision",
			want: DiagDupName,
			build: func() *Graph {
				g := NewGraph()
				a, b := g.Link("a"), g.Link("b")
				g.Add(NewSource("same", oneRec, a))
				g.Add(NewSource("same", oneRec, b))
				g.Add(NewSink("sa", a))
				g.Add(NewSink("sb", b))
				return g
			},
		},
		{
			name: "nil port link",
			want: DiagNilLink,
			build: func() *Graph {
				g := NewGraph()
				l := g.Link("l")
				g.Add(NewSource("src", oneRec, l))
				g.Add(NewMap("m", func(r *record.Rec) {}, l, nil))
				return g
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			err := g.Check()
			if err == nil {
				t.Fatalf("Check accepted a graph with a %s defect", tc.want)
			}
			ce, ok := err.(*CheckError)
			if !ok {
				t.Fatalf("Check returned %T, want *CheckError", err)
			}
			if !ce.Has(tc.want) {
				t.Fatalf("Check missed %s; reported:\n%v", tc.want, err)
			}
		})
	}
}

// TestCheckAcceptsWellFormedLoop: the canonical countdown loop — the shape
// every kernel's recirculating pipeline takes — passes Check.
func TestCheckAcceptsWellFormedLoop(t *testing.T) {
	g := NewGraph()
	ext, body, dec, exit, recirc := g.Link("ext"), g.Link("body"), g.Link("dec"), g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", []record.Rec{record.Make(0, 3)}, ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewMap("dec", func(r *record.Rec) {}, body, dec))
	g.Add(NewFilter("exit?", func(r *record.Rec) int { return 0 }, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	g.Add(NewSink("snk", exit))
	if err := g.Check(); err != nil {
		t.Fatalf("well-formed loop rejected: %v", err)
	}
}

// TestCheckReportsEveryDefectAtOnce: diagnostics accumulate — a graph with
// several independent bugs reports all of them in one deterministic pass.
func TestCheckReportsEveryDefectAtOnce(t *testing.T) {
	g := NewGraph()
	g.Link("dangling")
	g.Add(NewSink("snk", g.Link("starved")))
	out := g.Link("unread")
	g.Add(NewSource("src", oneRec, out))

	err := g.Check()
	ce, ok := err.(*CheckError)
	if !ok {
		t.Fatalf("want *CheckError, got %v", err)
	}
	for _, code := range []DiagCode{DiagOrphanLink, DiagNoProducer, DiagNoConsumer} {
		if !ce.Has(code) {
			t.Errorf("missing %s in:\n%v", code, err)
		}
	}
	// Deterministic ordering: a second pass renders identically.
	if err2 := g.Check(); err2.Error() != err.Error() {
		t.Error("Check output is not deterministic across passes")
	}
}

// TestRunRefusesMalformedGraph: Run must reject before the first cycle —
// the sink sees no data and the returned cycle count is zero.
func TestRunRefusesMalformedGraph(t *testing.T) {
	g := NewGraph()
	l := g.Link("l")
	g.Add(NewSource("src", oneRec, l))
	snk := NewSink("snk", l)
	g.Add(snk)
	g.Link("dangling")
	cycles, err := g.Run(1000)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CheckError, got %v", err)
	}
	if cycles != 0 || snk.Count() != 0 {
		t.Fatalf("simulation ran despite failed check: cycles=%d recs=%d", cycles, snk.Count())
	}
	if !strings.Contains(err.Error(), "dangling") {
		t.Errorf("diagnostic does not name the offending link:\n%v", err)
	}
}

// TestCheckIgnoresPortlessComponents: components implementing neither port
// interface (like the HBM clock adapter) are link-free, not errors.
func TestCheckIgnoresPortlessComponents(t *testing.T) {
	g := NewGraph()
	l := g.Link("l")
	g.Add(NewSource("src", oneRec, l))
	g.Add(NewSink("snk", l))
	g.Add(portless{})
	if err := g.Check(); err != nil {
		t.Fatalf("portless component rejected: %v", err)
	}
}

type portless struct{}

func (portless) Name() string { return "portless" }
func (portless) Tick(int64)   {}
func (portless) Done() bool   { return true }

var _ sim.Component = portless{}
