package fabric_test

import (
	"fmt"
	"testing"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// countdownRing wires a k-link recirculating loop of capacity-c links under
// the name pf: entry merge → k-2 maps → exit filter → back to the entry.
// Each record's field 1 counts the laps it still has to run.
func countdownRing(g *fabric.Graph, pf string, k, c int, recs []record.Rec, ctl *fabric.LoopCtl) *fabric.Sink {
	link := func(name string) *sim.Link { return g.Sys.NewLink(pf+"."+name, c, fabric.LinkLatency) }
	ext, exit := g.Link(pf+".ext"), g.Link(pf+".exit")
	body, recirc := link("body"), link("recirc")
	g.Add(fabric.NewSource(pf+".src", recs, ext))
	g.Add(fabric.NewLoopMerge(pf+".entry", recirc, ext, body, ctl))
	for i := 0; i < k-2; i++ {
		next := link(fmt.Sprint("l", i))
		g.Add(fabric.NewMap(fmt.Sprint(pf, ".map", i), func(*record.Rec) {}, body, next))
		body = next
	}
	g.Add(fabric.NewFilter(pf+".exit?", func(r *record.Rec) int {
		if r.Get(1) == 0 {
			return 0
		}
		r.Put(1, r.Get(1)-1)
		return 1
	}, body, []fabric.Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	snk := fabric.NewSink(pf+".snk", exit)
	g.Add(snk)
	return snk
}

func laps(n int, lapsEach uint32) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i), lapsEach)
	}
	return recs
}

// TestAdmissionBoundFromRing: Check derives each loop's admission bound
// from its ring — half the ring's token capacity, at least one vector,
// unbounded with a spill queue on the ring — and the loops still drain.
func TestAdmissionBoundFromRing(t *testing.T) {
	t.Run("k-link ring", func(t *testing.T) {
		for _, tc := range []struct{ k, c int }{{2, 8}, {3, 8}, {5, 4}, {9, 2}} {
			g := fabric.NewGraph()
			snk := countdownRing(g, "r", tc.k, tc.c, laps(600, 5), fabric.NewLoopCtl())
			if _, err := g.Run(1_000_000); err != nil {
				t.Fatalf("k=%d c=%d: %v", tc.k, tc.c, err)
			}
			want := int64(tc.k * tc.c * record.NumLanes / 2)
			if got := fabric.AdmissionBounds(g)["r.entry"]; got != want {
				t.Errorf("k=%d c=%d: bound %d, want %d", tc.k, tc.c, got, want)
			}
			if snk.Count() != 600 {
				t.Errorf("k=%d c=%d: %d exits, want 600", tc.k, tc.c, snk.Count())
			}
		}
	})

	t.Run("spill queue stays unbounded", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(dram.New(dram.DefaultConfig()))
		ctl := fabric.NewLoopCtl()
		ext, body, recirc, recircQ, exit := g.Link("ext"), g.Link("body"), g.Link("recirc"), g.Link("recircQ"), g.Link("exit")
		g.Add(fabric.NewSource("src", laps(600, 5), ext))
		g.Add(fabric.NewLoopMerge("entry", recircQ, ext, body, ctl))
		g.Add(fabric.NewFilter("exit?", func(r *record.Rec) int {
			if r.Get(1) == 0 {
				return 0
			}
			r.Put(1, r.Get(1)-1)
			return 1
		}, body, []fabric.Output{
			{Link: exit, Exit: true},
			{Link: recirc, NoEOS: true},
		}, ctl))
		fabric.NewSpillQueue(g, "spill", 1<<20, 2, 32, recirc, recircQ)
		snk := fabric.NewSink("snk", exit)
		g.Add(snk)
		if _, err := g.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if got := fabric.AdmissionBounds(g)["entry"]; got != 0 {
			t.Errorf("bound %d on a ring with a spill queue, want 0 (unbounded)", got)
		}
		if snk.Count() != 600 {
			t.Errorf("%d exits, want 600", snk.Count())
		}
	})

	t.Run("tiny links admit one vector", func(t *testing.T) {
		// Two capacity-1 links hold exactly one vector between them: the
		// bound is one vector and the loop drains.
		g := fabric.NewGraph()
		snk := countdownRing(g, "r", 2, 1, laps(100, 3), fabric.NewLoopCtl())
		if _, err := g.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if got := fabric.AdmissionBounds(g)["r.entry"]; got != record.NumLanes {
			t.Errorf("bound %d, want one vector (%d)", got, record.NumLanes)
		}
		if snk.Count() != 100 {
			t.Errorf("%d exits, want 100", snk.Count())
		}
		// A one-link ring holds half a vector's tokens once halved; the
		// floor still lets a full vector in.
		g = fabric.NewGraph()
		ext, self := g.Link("ext"), g.Sys.NewLink("self", 1, fabric.LinkLatency)
		g.Add(fabric.NewSource("src", nil, ext))
		g.Add(fabric.NewLoopMerge("entry", self, ext, self, fabric.NewLoopCtl()))
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if got := fabric.AdmissionBounds(g)["entry"]; got != record.NumLanes {
			t.Errorf("one-link ring: bound %d, want one vector (%d)", got, record.NumLanes)
		}
	})

	t.Run("shared control takes the smaller ring", func(t *testing.T) {
		g := fabric.NewGraph()
		ctl := fabric.NewLoopCtl()
		a := countdownRing(g, "a", 2, 8, laps(200, 4), ctl)
		b := countdownRing(g, "b", 6, 8, laps(200, 4), ctl)
		if _, err := g.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		want := int64(2 * 8 * record.NumLanes / 2)
		if got := fabric.AdmissionBounds(g); got["a.entry"] != want || got["b.entry"] != want {
			t.Errorf("bounds %v, want %d on both entries", got, want)
		}
		if a.Count() != 200 || b.Count() != 200 {
			t.Errorf("exits %d and %d, want 200 each", a.Count(), b.Count())
		}
	})

	t.Run("kernel loops", func(t *testing.T) {
		// The probe's chain walk spans 8 links (body, toSpad, toDram,
		// fromSpad, fromDram, fetched, forked, recirc); the build's CAS
		// retry spans 9 (body, nextSpadIn, nextDramIn, nextSpadOut,
		// nextDramOut, casIn, casOut, recirc, recirc2), and so does the
		// partition's FAA retry (body, hashed, faaOut, allocIn, allocFaa,
		// linked, published, retry, recircJoin).
		input := make([]record.Rec, 256)
		for i := range input {
			input[i] = record.Make(uint32(i%100), uint32(i))
		}
		ht, _, err := core.BuildHashTable(core.DefaultHashTableParams(len(input)), input, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := fabric.NewGraph()
		g.AttachHBM(ht.HBM)
		core.ProbeHashTableInto(g, "prb", ht, core.InRecs(input[:64]), core.ProbeOptions{})
		if _, _, err := core.BuildHashTableInto(g, "bld", core.DefaultHashTableParams(len(input)), core.InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.PartitionInto(g, "prt", core.DefaultPartitionParams(len(input), 4, 2), core.InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		got := fabric.AdmissionBounds(g)
		for entry, links := range map[string]int64{"prb.entry": 8, "bld.entry": 9, "prt.entry": 9} {
			want := links * fabric.LinkCapacity * record.NumLanes / 2
			if got[entry] != want {
				t.Errorf("%s: bound %d, want %d (%d links)", entry, got[entry], want, links)
			}
		}
		if got["prb.entry"] != 512 {
			t.Errorf("probe loop bound %d, want 512", got["prb.entry"])
		}
	})
}
