package fabric

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
)

func chainNetlist(n int) Netlist {
	nl := Netlist{}
	for i := 0; i < n; i++ {
		nl.Nodes = append(nl.Nodes, fmt.Sprintf("t%d", i))
	}
	for i := 0; i+1 < n; i++ {
		nl.Edges = append(nl.Edges, [2]string{nl.Nodes[i], nl.Nodes[i+1]})
	}
	return nl
}

func TestPlaceChainAdjacent(t *testing.T) {
	nl := chainNetlist(50)
	p, err := Place(nl, GorgonGrid)
	if err != nil {
		t.Fatal(err)
	}
	// A linear pipeline snakes through the grid: every hop is latency 2
	// (one register + one grid hop).
	for _, e := range nl.Edges {
		l, err := p.Latency(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if l != 2 {
			t.Fatalf("edge %v latency %d, want 2 (adjacent)", e, l)
		}
	}
}

func TestPlaceRejectsOverflowAndBadEdges(t *testing.T) {
	if _, err := Place(chainNetlist(401), GorgonGrid); err == nil {
		t.Error("401 tiles on a 20x20 grid accepted")
	}
	if _, err := Place(Netlist{Nodes: []string{"a"}, Edges: [][2]string{{"a", "b"}}}, GorgonGrid); err == nil {
		t.Error("undeclared edge endpoint accepted")
	}
	if _, err := Place(Netlist{Nodes: []string{"a", "a"}}, GorgonGrid); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := Place(Netlist{Nodes: []string{""}}, GorgonGrid); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := Place(Netlist{Nodes: []string{"a", "b"}, Edges: [][2]string{{"c", "b"}}}, GorgonGrid); err == nil {
		t.Error("undeclared edge source accepted")
	}
}

// TestPlaceMixedCycleAndDAG: a netlist whose cycle hangs off a DAG prefix —
// the shape of every looped kernel — places all nodes exactly once.
func TestPlaceMixedCycleAndDAG(t *testing.T) {
	nl := Netlist{
		Nodes: []string{"src", "entry", "body", "exit"},
		Edges: [][2]string{
			{"src", "entry"}, {"entry", "body"},
			{"body", "entry"}, // recirculation
			{"body", "exit"},
		},
	}
	p, err := Place(nl, GorgonGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Coord) != len(nl.Nodes) {
		t.Fatalf("placed %d of %d", len(p.Coord), len(nl.Nodes))
	}
	if err := p.Validate(nl); err != nil {
		t.Fatalf("computed placement fails its own validation: %v", err)
	}
}

// TestValidateRejectsCorruptPlacements: each way a hand-edited placement can
// go wrong is a distinct error.
func TestValidateRejectsCorruptPlacements(t *testing.T) {
	nl := Netlist{Nodes: []string{"a", "b"}, Edges: [][2]string{{"a", "b"}}}
	fresh := func() *Placement {
		p, err := Place(nl, Coord{X: 4, Y: 4})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := fresh().Validate(nl); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	p := fresh()
	delete(p.Coord, "b")
	if err := p.Validate(nl); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Errorf("missing node: got %v", err)
	}

	p = fresh()
	p.Coord["ghost"] = Coord{X: 3, Y: 3}
	if err := p.Validate(nl); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared node: got %v", err)
	}

	p = fresh()
	p.Coord["b"] = p.Coord["a"]
	if err := p.Validate(nl); err == nil || !strings.Contains(err.Error(), "share tile") {
		t.Errorf("duplicate coordinate: got %v", err)
	}

	p = fresh()
	p.Coord["b"] = Coord{X: 4, Y: 0}
	if err := p.Validate(nl); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-grid: got %v", err)
	}
	p = fresh()
	p.Coord["b"] = Coord{X: 0, Y: -1}
	if err := p.Validate(nl); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("negative coordinate: got %v", err)
	}
}

// TestGraphNetlist: a graph's netlist lists its ported components in
// registration order and one edge per link in creation order, skipping the
// HBM clock, and the netlist places.
func TestGraphNetlist(t *testing.T) {
	g := NewGraph()
	g.AttachHBM(dram.New(dram.DefaultConfig()))
	s := record.NewSchema("id", "count")
	ext, body, dec, exit, recirc := g.Link("ext"), g.Link("body"),
		g.Link("dec"), g.Link("exit"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", nil, ext).Typed(s))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl).Typed(s, s, s))
	g.Add(NewMap("dec", func(*record.Rec) {}, body, dec).Typed(s, s))
	g.Add(NewFilter("exit?", func(*record.Rec) int { return 0 }, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl).Typed(s))
	g.Add(NewSink("snk", exit).Typed(s))

	nl := g.Netlist()
	want := Netlist{
		Nodes: []string{"src", "entry", "dec", "exit?", "snk"},
		Edges: [][2]string{
			{"src", "entry"}, {"entry", "dec"}, {"dec", "exit?"},
			{"exit?", "snk"}, {"exit?", "entry"},
		},
	}
	if !reflect.DeepEqual(nl, want) {
		t.Fatalf("netlist\n%v\nwant\n%v", nl, want)
	}
	p, err := Place(nl, GorgonGrid)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(nl); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceCycleOnlyGraph(t *testing.T) {
	nl := Netlist{
		Nodes: []string{"a", "b", "c"},
		Edges: [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}},
	}
	p, err := Place(nl, GorgonGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Coord) != 3 {
		t.Fatalf("placed %d of 3", len(p.Coord))
	}
}

func TestRender(t *testing.T) {
	p, err := Place(chainNetlist(25), Coord{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Render()
	if strings.Count(out, "\n") != 5 {
		t.Errorf("render rows:\n%s", out)
	}
}
