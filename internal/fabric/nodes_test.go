package fabric

import (
	"reflect"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// streamSizes straddle the vector width: empty, single, one short of a
// vector, exactly one, one over, two and a bit, and many.
var streamSizes = []int{0, 1, 15, 16, 17, 33, 1000}

// vecSource is the materialising source the streaming Source replaced: it
// packs the whole input with record.Vectorize up front and emits one
// prebuilt vector per cycle.
type vecSource struct {
	out  *sim.Link
	vecs []record.Vector
	pos  int
	eos  bool
}

func (s *vecSource) Name() string                    { return "vecsrc" }
func (s *vecSource) OutputLinks() []*sim.Link        { return []*sim.Link{s.out} }
func (s *vecSource) Done() bool                      { return s.eos }
func (s *vecSource) Idle(int64) bool                 { return s.eos || !s.out.CanPush() }
func (s *vecSource) InputSchemas() []*record.Schema  { return nil }
func (s *vecSource) OutputSchemas() []*record.Schema { return nil }

func (s *vecSource) Tick(cycle int64) {
	if s.eos || !s.out.CanPush() {
		return
	}
	if s.pos < len(s.vecs) {
		*s.out.StageVec(cycle) = s.vecs[s.pos]
		s.pos++
		return
	}
	s.out.PushEOS(cycle)
	s.eos = true
}

// arrival is one flit as a consumer saw it: the cycle, the mask, and the
// valid lanes only.
type arrival struct {
	cycle int64
	eos   bool
	mask  uint16
	lanes []record.Rec
}

// recorder drains its input on two cycles of every three, so the source
// under test also meets backpressure, and logs every flit it pops.
type recorder struct {
	in  *sim.Link
	log []arrival
	eos bool
}

func (r *recorder) Name() string            { return "recorder" }
func (r *recorder) InputLinks() []*sim.Link { return []*sim.Link{r.in} }
func (r *recorder) Done() bool              { return r.eos }

func (r *recorder) Tick(cycle int64) {
	if cycle%3 == 0 {
		return
	}
	for !r.in.Empty() {
		f := r.in.Peek()
		a := arrival{cycle: cycle, eos: f.EOS, mask: f.Vec.Mask}
		for i := 0; i < record.NumLanes; i++ {
			if f.Vec.Valid(i) {
				a.lanes = append(a.lanes, f.Vec.Lane[i])
			}
		}
		r.in.Drop()
		r.log = append(r.log, a)
		if f.EOS {
			r.eos = true
			return
		}
	}
}

// trace runs src into a recorder and returns what it saw.
func trace(t *testing.T, g *Graph, src sim.Component, l *sim.Link) []arrival {
	t.Helper()
	rec := &recorder{in: l}
	g.Add(src, rec)
	if _, err := g.Sys.Run(10_000); err != nil {
		t.Fatal(err)
	}
	return rec.log
}

// TestSourceMatchesVectorize: the streaming Source emits, cycle by cycle,
// the same masks and valid lanes as the vectors record.Vectorize packs, with
// end-of-stream on the same cycle, and the flow net's supply is the record
// count.
func TestSourceMatchesVectorize(t *testing.T) {
	for _, n := range streamSizes {
		recs := seqRecs(n)

		g := NewGraph()
		l := g.Link("s")
		src := NewSource("src", recs, l)
		got := trace(t, g, src, l)

		ref := NewGraph()
		rl := ref.Link("s")
		want := trace(t, ref, &vecSource{out: rl, vecs: record.Vectorize(recs)}, rl)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Source emitted\n%v\nVectorize reference\n%v", n, got, want)
		}
		if last := got[len(got)-1]; !last.eos || len(got) != (n+record.NumLanes-1)/record.NumLanes+1 {
			t.Fatalf("n=%d: %d flits ending eos=%v", n, len(got), last.eos)
		}

		supply := -1
		for _, nd := range g.FlowNet().Nodes {
			if nd.Name == "src" {
				supply = nd.Supply
			}
		}
		if supply != n {
			t.Fatalf("n=%d: flow-net supply %d", n, supply)
		}
	}
}

// TestSourceFuncMatchesSource: a generator source emits the same flits as
// a slice source over the records it generates — lanes, masks, and the
// cycle of every flit, end-of-stream included — and the flow net takes its
// supply from its count. The records vary in width and the long stream
// reuses link slots, so a lane the generator left stale would show.
func TestSourceFuncMatchesSource(t *testing.T) {
	mk := func(i int) record.Rec {
		r := record.Make(uint32(i))
		for k := 0; k < i%5; k++ {
			r = r.Append(uint32(1000*i + k))
		}
		return r
	}
	for _, n := range streamSizes {
		recs := make([]record.Rec, n)
		for i := range recs {
			recs[i] = mk(i)
		}

		g := NewGraph()
		l := g.Link("s")
		src := NewSourceFunc("src", n, func(i int, r *record.Rec) { *r = mk(i) }, l)
		got := trace(t, g, src, l)

		ref := NewGraph()
		rl := ref.Link("s")
		want := trace(t, ref, NewSource("src", recs, rl), rl)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: NewSourceFunc emitted\n%v\nNewSource\n%v", n, got, want)
		}
		for _, nd := range g.FlowNet().Nodes {
			if nd.Name == "src" && nd.Supply != n {
				t.Fatalf("n=%d: flow-net supply %d", n, nd.Supply)
			}
		}
	}
}

// thinned wires recs through a filter that kills every record whose key
// is 1 or 2 mod 3 — sparse, partial vectors — into the sink mk builds.
func thinned(recs []record.Rec, mk func(string, *sim.Link) *Sink) (*Graph, *Sink) {
	g := NewGraph()
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	g.Add(NewFilter("thin", func(r *record.Rec) int {
		if r.Get(0)%3 != 0 {
			return -1
		}
		return 0
	}, in, []Output{{Link: out}}, nil))
	snk := mk("snk", out)
	g.Add(snk)
	return g, snk
}

// TestCountSinkMatchesSink: a count-only sink reports the same Count as a
// storing sink on the same stream, partial vectors included, and stores
// nothing.
func TestCountSinkMatchesSink(t *testing.T) {
	for _, n := range streamSizes {
		gs, store := thinned(seqRecs(n), NewSink)
		gc, count := thinned(seqRecs(n), NewCountSink)
		for _, g := range []*Graph{gs, gc} {
			if _, err := g.Run(100_000); err != nil {
				t.Fatal(err)
			}
		}
		want := (n + 2) / 3
		if store.Count() != want || len(store.Records()) != want {
			t.Fatalf("n=%d: storing sink count %d, %d records, want %d", n, store.Count(), len(store.Records()), want)
		}
		if count.Count() != want {
			t.Fatalf("n=%d: count sink %d, storing sink %d", n, count.Count(), want)
		}
		if count.Records() != nil {
			t.Fatalf("n=%d: count sink stored %d records", n, len(count.Records()))
		}
	}
}

// TestCountSinkTickZeroAlloc: draining a stream into a count-only sink
// allocates nothing per flit. A whole Source → Filter → CountSink run
// allocates the same for 16 records as for 16K, so no node allocates in its
// tick; a storing sink, which grows its record slice, does not pass.
func TestCountSinkTickZeroAlloc(t *testing.T) {
	small, large := seqRecs(record.NumLanes), seqRecs(1024*record.NumLanes)
	allocs := func(recs []record.Rec, mk func(string, *sim.Link) *Sink) float64 {
		return testing.AllocsPerRun(5, func() {
			g, snk := thinned(recs, mk)
			if _, err := g.Run(100_000); err != nil || snk.Count() != (len(recs)+2)/3 {
				t.Fatalf("run: %v, counted %d of %d", err, snk.Count(), len(recs))
			}
		})
	}
	if a, b := allocs(small, NewCountSink), allocs(large, NewCountSink); a != b {
		t.Errorf("count-sink run allocates %.0f times for %d records, %.0f for %d; want equal",
			a, len(small), b, len(large))
	}
	if a, b := allocs(small, NewSink), allocs(large, NewSink); a == b {
		t.Errorf("storing sink allocates %.0f times at both sizes; the measure is blind", a)
	}
}
