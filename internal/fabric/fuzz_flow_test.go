package fabric

import (
	"fmt"
	"testing"

	"aurochs/internal/record"
)

// FuzzFlowProve drives the token-flow prover with byte-steered pipelines
// of chained segments — straight stages and countdown loops, including
// deliberately defective loop variants — and enforces its two-sided
// contract:
//
//   - Prove never panics, whatever the topology;
//   - it is sound for the segment menu fuzzed here: a graph it passes
//     clean (no findings, no warnings) drains to completion within a
//     generous budget. Every route function in the menu terminates per
//     record (counts strictly decrease), so the only ways a build can
//     fail to drain are the structural defects the prover must catch.
//
// The defective variants — nil-ctl exits, missing exit outputs, swapped
// LoopMerge arguments, uncounted side entrances — must therefore never
// decode into a clean report. Committed seeds under
// testdata/fuzz/FuzzFlowProve pin one graph of each shape.
func FuzzFlowProve(f *testing.F) {
	// Seeds: all-clean chain; nil-ctl loop; no-exit loop; swapped entry;
	// uncounted side entry; garbage.
	f.Add([]byte{2, 16, 1, 3, 0, 2})
	f.Add([]byte{1, 8, 2, 1})
	f.Add([]byte{1, 8, 3, 2})
	f.Add([]byte{1, 8, 4, 3})
	f.Add([]byte{1, 8, 5, 1})
	f.Add([]byte{255, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		build := func() *Graph { return buildFlowFuzzGraph(data) }
		rep := build().ProveFlow() // must not panic
		if !rep.DeadlockFree() || len(rep.Warnings) != 0 {
			return // prover rejected or abstained; nothing to assert
		}
		budget := int64(4000 + 100*rep.Occupancy.Total)
		if _, err := build().Run(budget); err != nil {
			t.Fatalf("prover passed a graph that does not drain: %v\n%s", err, rep)
		}
	})
}

// buildFlowFuzzGraph decodes data into a chain of segments. Byte 0 is the
// segment count, byte 1 the record count; each segment consumes two bytes:
// a variant selector and a countdown parameter.
func buildFlowFuzzGraph(data []byte) *Graph {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	g := NewGraph()
	nseg := int(next())%3 + 1
	nrec := int(next())%24 + 4
	counts := uint32(0)
	cur := g.Link("in")
	srcRecs := make([]record.Rec, nrec)

	for s := 0; s < nseg; s++ {
		variant := int(next()) % 6
		laps := uint32(next())%3 + 1
		if laps > counts {
			counts = laps
		}
		pf := fmt.Sprintf("s%d.", s)
		switch variant {
		case 0: // straight map stage
			out := g.Link(pf + "out")
			g.Add(NewMap(pf+"map", decCount, cur, out))
			cur = out
		case 1: // clean countdown loop
			body, dec, exit, rec := g.Link(pf+"body"), g.Link(pf+"dec"),
				g.Link(pf+"exit"), g.Link(pf+"recirc")
			ctl := NewLoopCtl()
			g.Add(NewLoopMerge(pf+"entry", rec, cur, body, ctl))
			g.Add(NewMap(pf+"dec", decCount, body, dec))
			g.Add(NewFilter(pf+"exit?", exitWhenZero, dec, []Output{
				{Link: exit, Exit: true},
				{Link: rec, NoEOS: true},
			}, ctl))
			cur = exit
		case 2: // loop whose exit filter carries no ctl: uncounted exits
			body, dec, exit, rec := g.Link(pf+"body"), g.Link(pf+"dec"),
				g.Link(pf+"exit"), g.Link(pf+"recirc")
			ctl := NewLoopCtl()
			g.Add(NewLoopMerge(pf+"entry", rec, cur, body, ctl))
			g.Add(NewMap(pf+"dec", decCount, body, dec))
			g.Add(NewFilter(pf+"exit?", exitWhenZero, dec, []Output{
				{Link: exit, Exit: true},
				{Link: rec, NoEOS: true},
			}, nil))
			cur = exit
		case 3: // loop with no exit output at all
			body, rec := g.Link(pf+"body"), g.Link(pf+"recirc")
			ctl := NewLoopCtl()
			g.Add(NewLoopMerge(pf+"entry", rec, cur, body, ctl))
			g.Add(NewMap(pf+"spin", decCount, body, rec))
			// The chain ends here: nothing ever leaves this segment.
			g.Add(NewSink("snk", g.Link("dangling")))
			vecRecs(srcRecs, counts)
			g.Add(NewSource("src", srcRecs, g.Sys.Links()[0]))
			return g
		case 4: // swapped LoopMerge arguments
			body, dec, exit, rec := g.Link(pf+"body"), g.Link(pf+"dec"),
				g.Link(pf+"exit"), g.Link(pf+"recirc")
			ctl := NewLoopCtl()
			g.Add(NewLoopMerge(pf+"entry", cur, rec, body, ctl))
			g.Add(NewMap(pf+"dec", decCount, body, dec))
			g.Add(NewFilter(pf+"exit?", exitWhenZero, dec, []Output{
				{Link: exit, Exit: true},
				{Link: rec, NoEOS: true},
			}, ctl))
			cur = exit
		case 5: // clean loop plus an uncounted side entrance
			side, merged, body, dec, exit, rec := g.Link(pf+"side"), g.Link(pf+"merged"),
				g.Link(pf+"body"), g.Link(pf+"dec"), g.Link(pf+"exit"), g.Link(pf+"recirc")
			ctl := NewLoopCtl()
			g.Add(NewSource(pf+"sneak", flowRecs(2, 1), side))
			g.Add(NewLoopMerge(pf+"entry", rec, cur, merged, ctl))
			g.Add(NewMerge(pf+"mix", merged, side, body))
			g.Add(NewMap(pf+"dec", decCount, body, dec))
			g.Add(NewFilter(pf+"exit?", exitWhenZero, dec, []Output{
				{Link: exit, Exit: true},
				{Link: rec, NoEOS: true},
			}, ctl))
			cur = exit
		}
	}
	g.Add(NewSink("snk", cur))
	vecRecs(srcRecs, counts)
	g.Add(NewSource("src", srcRecs, g.Sys.Links()[0]))
	return g
}

// vecRecs fills recs with countdown records carrying the given count.
func vecRecs(recs []record.Rec, count uint32) {
	for i := range recs {
		recs[i] = record.Make(uint32(i), count)
	}
}
