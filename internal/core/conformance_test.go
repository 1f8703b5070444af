package core

import (
	"testing"

	"aurochs/internal/fabric"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// TestKernelIdleConformance: full kernel pipelines — hash build, hash
// probe, radix partition — run under sim.VerifyIdleContract, which ticks
// behind every Idle=true answer and proves it a no-op. This sweeps the
// component types the small fabric conformance cases cannot reach solo:
// scratchpad tiles inside kernel wiring, DRAM nodes, the HBM clock
// adapter, and the kernels' recirculating loops.
func TestKernelIdleConformance(t *testing.T) {
	input := make([]record.Rec, 400)
	for i := range input {
		input[i] = record.Make(uint32(i*7%1024), uint32(i))
	}

	t.Run("hash-build", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(defaultHBM())
		_, snk, err := BuildHashTableInto(g, "bld", DefaultHashTableParams(len(input)), InRecs(input))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyIdleContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() != len(input) {
			t.Fatalf("inserted %d of %d", snk.Count(), len(input))
		}
	})

	t.Run("hash-probe", func(t *testing.T) {
		ht, _, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := fabric.NewGraph()
		g.AttachHBM(ht.HBM)
		snk := ProbeHashTableInto(g, "prb", ht, InRecs(input), ProbeOptions{})
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyIdleContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() == 0 {
			t.Fatal("probe matched nothing")
		}
	})

	t.Run("partition", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(defaultHBM())
		p := DefaultPartitionParams(len(input), 16, 2)
		ps, snk, err := PartitionInto(g, "prt", p, InRecs(input))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyIdleContract(g.Sys, 4_000_000); err != nil {
			t.Fatal(err)
		}
		FinishPartition(ps)
		if snk.Count() != len(input) {
			t.Fatalf("stored %d of %d", snk.Count(), len(input))
		}
	})

	t.Run("spatial-join", func(t *testing.T) {
		g, snk := spatialJoinGraph()
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyIdleContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() == 0 {
			t.Fatal("spatial join matched nothing")
		}
	})
}

// TestTileSorterIdleConformance: the double-buffered sort tile, solo.
func TestTileSorterIdleConformance(t *testing.T) {
	g := fabric.NewGraph()
	in, out := g.Link("in"), g.Link("out")
	recs := make([]record.Rec, 700)
	for i := range recs {
		recs[i] = record.Make(uint32((i*2654435761)%4096), uint32(i))
	}
	g.Add(fabric.NewSource("src", recs, in))
	g.Add(newTileSorter("ts", func(r record.Rec) uint64 { return uint64(r.Get(0)) }, 256, in, out))
	snk := fabric.NewSink("snk", out)
	g.Add(snk)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifyIdleContract(g.Sys, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != len(recs) {
		t.Fatalf("sorted %d of %d", snk.Count(), len(recs))
	}
}

// TestKernelWakeConformance: the same kernel pipelines on the wake-audit
// harness — every cycle, each sleeping component's Idle answer is
// cross-checked. This is the regression gate for the callback-host wake
// class: an HBM completion callback mutating loop-control state must wake
// the loop's entry merge, or the walk stalls only at scales where an
// expansion kills its last thread from inside the callback.
func TestKernelWakeConformance(t *testing.T) {
	input := make([]record.Rec, 400)
	for i := range input {
		input[i] = record.Make(uint32(i*7%1024), uint32(i))
	}

	t.Run("hash-probe", func(t *testing.T) {
		ht, _, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := fabric.NewGraph()
		g.AttachHBM(ht.HBM)
		snk := ProbeHashTableInto(g, "prb", ht, InRecs(input), ProbeOptions{})
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyWakeContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() == 0 {
			t.Fatal("probe matched nothing")
		}
	})

	t.Run("tree-walk", func(t *testing.T) {
		ents := make([]rtree.Entry, 600)
		for i := range ents {
			x := uint32(i%30) * 30
			y := uint32(i/30) * 30
			ents[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 25, MaxY: y + 25}, ID: uint32(i)}
		}
		tr := rtree.Build(defaultHBM(), RegionTables, ents, 1024)
		var qs []WindowQuery
		for i := 0; i < 40; i++ {
			x := uint32(i%8) * 100
			y := uint32(i/8) * 100
			qs = append(qs, WindowQuery{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 150, MaxY: y + 150}, Tag: uint32(i)})
		}
		g := fabric.NewGraph()
		g.AttachHBM(tr.HBM)
		var threads []record.Rec
		for _, q := range qs {
			threads = append(threads, record.Make(q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, tr.Root, 0, 0, q.Tag))
		}
		snk := wireTreeWalk(g, "rtw", threads,
			[]fabric.Fetch{{Words: rtree.NodeWords, Addr: func(r record.Rec) uint32 { return tr.NodeAddr(r.Get(rtPtr)) }}},
			expandRTreeNode, rtMark,
			func(r *record.Rec) {
				*r = record.Make(r.Get(rtResID), r.Get(rtTag))
			}, 16)
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyWakeContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() == 0 {
			t.Fatal("window walk matched nothing")
		}
	})

	t.Run("spatial-join", func(t *testing.T) {
		g, snk := spatialJoinGraph()
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if err := sim.VerifyWakeContract(g.Sys, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() == 0 {
			t.Fatal("spatial join matched nothing")
		}
	})
}

// spatialJoinGraph wires the two-tree spatial join — the walk whose
// fetch-and-fork node reads two blocks per thread — over seeded trees
// sharing one HBM.
func spatialJoinGraph() (*fabric.Graph, *fabric.Sink) {
	h := defaultHBM()
	const maxC = 1 << 14
	a := rtree.Build(h, RegionTables, randRects(500, maxC, 400, 11), maxC)
	b := rtree.Build(h, RegionTables+(1<<24), randRects(400, maxC, 400, 12), maxC)
	g := fabric.NewGraph()
	g.AttachHBM(h)
	return g, wireSpatialJoin(g, a, b)
}
