package fabric

import (
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// drainShape wires the countdown loop of flow_test.go (threads decrement a
// counter until zero, then exit) and lets tail close the loop from the exit
// filter's recirculating output again, which never carries end-of-stream,
// and its second output side, which does; tail must feed recirc.
func drainShape(tail func(g *Graph, again, side, recirc *sim.Link)) (*Graph, *Sink) {
	g := NewGraph()
	ext, body, dec, exit := g.Link("ext"), g.Link("body"), g.Link("dec"), g.Link("exit")
	again, side, recirc := g.Link("again"), g.Link("side"), g.Link("recirc")
	ctl := NewLoopCtl()
	g.Add(NewSource("src", flowRecs(100, 5), ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewMap("dec", decCount, body, dec))
	g.Add(NewFilter("exit?", func(r *record.Rec) int {
		switch c := r.Get(1); {
		case c == 0:
			return 0
		case c%2 == 1:
			return 2
		}
		return 1
	}, dec, []Output{
		{Link: exit, Exit: true},
		{Link: again, NoEOS: true},
		{Link: side},
	}, ctl))
	snk := NewSink("snk", exit)
	g.Add(snk)
	tail(g, again, side, recirc)
	return g, snk
}

// TestDerivedDrainRoles: no node declares its drain role. Check derives it
// from the wiring, and each of three shapes with a node that never sees
// end-of-stream drains: a map, a merge with one input that never carries
// it, and a filter whose outputs are all NoEOS. Nodes on the end-of-stream
// path keep the role that waits for the token.
func TestDerivedDrainRoles(t *testing.T) {
	cases := []struct {
		name     string
		tail     func(g *Graph, again, side, recirc *sim.Link)
		empty    []string // derived done-when-empty
		eosRoles []string // derived done once end-of-stream is forwarded
	}{
		{
			name: "map never sees eos",
			tail: func(g *Graph, again, side, recirc *sim.Link) {
				lapped := g.Link("lapped")
				g.Add(NewMap("lap", func(*record.Rec) {}, again, lapped))
				g.Add(NewMerge("rejoin", lapped, side, recirc))
			},
			empty:    []string{"lap", "rejoin"},
			eosRoles: []string{"dec", "exit?"},
		},
		{
			name: "merge with one eos input",
			tail: func(g *Graph, again, side, recirc *sim.Link) {
				sided := g.Link("sided")
				g.Add(NewMap("halve", func(*record.Rec) {}, side, sided))
				g.Add(NewMerge("mix", sided, again, recirc))
			},
			empty:    []string{"mix"},
			eosRoles: []string{"dec", "exit?", "halve"},
		},
		{
			name: "filter with only noeos outputs",
			tail: func(g *Graph, again, side, recirc *sim.Link) {
				a, b, fanned := g.Link("a"), g.Link("b"), g.Link("fanned")
				g.Add(NewFilter("fan", func(r *record.Rec) int { return int(r.Get(0) & 1) }, again,
					[]Output{{Link: a, NoEOS: true}, {Link: b, NoEOS: true}}, nil))
				g.Add(NewMerge("join", a, b, fanned))
				g.Add(NewMerge("rejoin", fanned, side, recirc))
			},
			empty:    []string{"fan", "join", "rejoin"},
			eosRoles: []string{"dec", "exit?"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, snk := drainShape(tc.tail)
			if _, err := g.Run(1_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			if snk.Count() != 100 {
				t.Fatalf("exited %d threads, want 100", snk.Count())
			}
			role := make(map[string]bool)
			for _, c := range g.Sys.Components() {
				switch n := c.(type) {
				case *Map:
					role[n.name] = n.doneWhenEmpty
				case *Filter:
					role[n.name] = n.doneWhenEmpty
				case *Merge:
					role[n.name] = n.doneWhenEmpty
				}
			}
			for _, name := range tc.empty {
				if !role[name] {
					t.Errorf("%s: derived role waits for end-of-stream, want done when empty", name)
				}
			}
			for _, name := range append(tc.eosRoles, "entry") {
				if role[name] {
					t.Errorf("%s: derived role is done when empty, want done once end-of-stream is forwarded", name)
				}
			}
		})
	}
}
