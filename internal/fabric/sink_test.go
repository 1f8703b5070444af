package fabric

import (
	"errors"
	"reflect"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// appendSink is the storing sink that chunked storage replaced: it grows
// one record slice with Vector.AppendRecords as flits arrive.
type appendSink struct {
	in   *sim.Link
	recs []record.Rec
	eos  bool
}

func (s *appendSink) Name() string                    { return "appendsnk" }
func (s *appendSink) InputLinks() []*sim.Link         { return []*sim.Link{s.in} }
func (s *appendSink) Done() bool                      { return s.eos }
func (s *appendSink) Idle(int64) bool                 { return s.eos || s.in.Empty() }
func (s *appendSink) InputSchemas() []*record.Schema  { return nil }
func (s *appendSink) OutputSchemas() []*record.Schema { return nil }

func (s *appendSink) Tick(int64) {
	for !s.in.Empty() {
		f := s.in.Pop()
		if f.EOS {
			s.eos = true
			return
		}
		s.recs = f.Vec.AppendRecords(s.recs)
	}
}

// TestChunkedSinkMatchesAppend: over every stream size, partial vectors
// included, a storing sink holds the same records in the same order as the
// append-grown slice it replaced; AppendTo and All agree with Records, and
// Records returns the same slice when called twice. A stream long enough to
// fill several chunks is included.
func TestChunkedSinkMatchesAppend(t *testing.T) {
	for _, n := range append(streamSizes, 20_000) {
		recs := seqRecs(n)
		g, snk := thinned(recs, NewSink)
		if _, err := g.Run(1_000_000); err != nil {
			t.Fatal(err)
		}

		ref := NewGraph()
		in, out := ref.Link("in"), ref.Link("out")
		ref.Add(NewSource("src", recs, in))
		ref.Add(NewFilter("thin", func(r *record.Rec) int {
			if r.Get(0)%3 != 0 {
				return -1
			}
			return 0
		}, in, []Output{{Link: out}}, nil))
		want := &appendSink{in: out}
		ref.Add(want)
		if _, err := ref.Run(1_000_000); err != nil {
			t.Fatal(err)
		}

		got := snk.Records()
		if !reflect.DeepEqual(got, want.recs) || snk.Count() != len(want.recs) {
			t.Fatalf("n=%d: chunked sink stored %d records (count %d), append path %d, or in another order",
				n, len(got), snk.Count(), len(want.recs))
		}
		if again := snk.Records(); len(got) > 0 && &again[0] != &got[0] {
			t.Fatalf("n=%d: a second Records call built a new slice", n)
		}
		prefix := []record.Rec{record.Make(7, 7)}
		if app := snk.AppendTo(prefix); !reflect.DeepEqual(app, append(prefix, want.recs...)) {
			t.Fatalf("n=%d: AppendTo gave %d records, want the prefix and %d", n, len(app), len(want.recs))
		}
		var seen []record.Rec
		for r := range snk.All() {
			seen = append(seen, *r)
		}
		if !reflect.DeepEqual(seen, want.recs) {
			t.Fatalf("n=%d: All yielded %d records, want %d in order", n, len(seen), len(want.recs))
		}
	}
}

// TestRingsRecycledOnlyAfterDrainedRun: a run that drains hands every link
// ring back to the pool, and the graph's links re-acquire rings if run
// again; a run cut short by its cycle budget keeps them, so the flits it
// stranded can still be inspected.
func TestRingsRecycledOnlyAfterDrainedRun(t *testing.T) {
	g, _ := thinned(seqRecs(10_000), NewSink)
	var budget *sim.BudgetError
	if _, err := g.Run(20); !errors.As(err, &budget) {
		t.Fatalf("run with a 20-cycle budget: %v, want a BudgetError", err)
	}
	held := 0
	for _, l := range g.Sys.Links() {
		if l.Recycled() {
			t.Fatalf("link %s lost its ring after a BudgetError", l.Name())
		}
		if !l.Empty() {
			held++
			if f := l.Peek(); !f.EOS && f.Vec.Count() == 0 {
				t.Fatalf("link %s: stuck flit is empty", l.Name())
			}
		}
	}
	if held == 0 {
		t.Fatal("no link held a stuck flit to inspect")
	}

	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Sys.Links() {
		if !l.Recycled() {
			t.Fatalf("link %s kept its ring after a drained run", l.Name())
		}
	}
}

// TestPipesRecycledOnlyAfterDrainedRun: a run that drains hands every Map
// and Filter pipe back to the pool, and the next node built takes one of
// them; a run cut short by its cycle budget keeps them, with the vectors
// still in flight inside.
func TestPipesRecycledOnlyAfterDrainedRun(t *testing.T) {
	g := NewGraph()
	in, mid, out := g.Link("in"), g.Link("mid"), g.Link("out")
	g.Add(NewSource("src", seqRecs(10_000), in))
	m := NewMap("inc", func(r *record.Rec) { r.Put(0, r.Get(0)+1) }, in, mid)
	g.Add(m)
	f := NewFilter("thin", func(r *record.Rec) int {
		if r.Get(0)%3 != 0 {
			return -1
		}
		return 0
	}, mid, []Output{{Link: out}}, nil)
	g.Add(f)
	snk := NewCountSink("snk", out)
	g.Add(snk)

	var budget *sim.BudgetError
	if _, err := g.Run(20); !errors.As(err, &budget) {
		t.Fatalf("run with a 20-cycle budget: %v, want a BudgetError", err)
	}
	if m.pipe.BackingID() == nil || f.pipe.BackingID() == nil {
		t.Fatal("a pipe was handed back after a BudgetError")
	}
	if m.pipe.Len()+f.pipe.Len() == 0 {
		t.Fatal("no pipe held a vector in flight to inspect")
	}

	released := map[*timedVec]bool{m.pipe.BackingID(): true, f.pipe.BackingID(): true}
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if want := 10_000 / 3; snk.Count() != want {
		t.Fatalf("sink counted %d records, want %d", snk.Count(), want)
	}
	if m.pipe.BackingID() != nil || f.pipe.BackingID() != nil {
		t.Fatal("a pipe kept its array after a drained run")
	}
	next := NewMap("next", func(*record.Rec) {}, in, mid)
	if !released[next.pipe.BackingID()] {
		t.Fatal("a new map did not take a recycled pipe")
	}
}
