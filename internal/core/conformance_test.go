package core

import (
	"slices"
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

// kernelRun is what the simulated contract pins for one kernel graph run.
type kernelRun struct {
	cycles int64
	stats  string
	dram   int64
	out    []record.Rec
}

// runKernelGraph builds a fresh graph and runs it with idle skipping or,
// with polling set, on the polling reference (sim.RunOptions.NoIdleSkip).
func runKernelGraph(t *testing.T, build func(*testing.T) (*fabric.Graph, *fabric.Sink), polling bool) kernelRun {
	t.Helper()
	g, snk := build(t)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Sys.RunWith(2_000_000, sim.RunOptions{NoIdleSkip: polling})
	if err != nil {
		t.Fatalf("polling=%v: %v", polling, err)
	}
	if snk.Count() == 0 {
		t.Fatal("the kernel produced nothing")
	}
	return kernelRun{cycles: cycles, stats: g.Stats().String(), dram: g.HBM.BytesMoved(), out: snk.Records()}
}

// TestKernelWakeConformance: kernel pipelines whose completion callbacks
// reach state outside the node that submitted the request — a hash probe,
// an R-tree window walk whose expansions retire threads inside the HBM's
// tick, and the two-tree spatial join — give bit-identical cycles, Stats,
// DRAM bytes and outputs with idle skipping and on the polling reference.
// A component skipped while idle must wake into exactly the state polling
// would have left it in.
func TestKernelWakeConformance(t *testing.T) {
	input := make([]record.Rec, 400)
	for i := range input {
		input[i] = record.Make(uint32(i*7%1024), uint32(i))
	}
	cases := []struct {
		name  string
		build func(*testing.T) (*fabric.Graph, *fabric.Sink)
	}{
		{"hash-probe", func(t *testing.T) (*fabric.Graph, *fabric.Sink) {
			ht, _, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := fabric.NewGraph()
			g.AttachHBM(ht.HBM)
			return g, ProbeHashTableInto(g, "prb", ht, InRecs(input), ProbeOptions{})
		}},
		{"tree-walk", func(*testing.T) (*fabric.Graph, *fabric.Sink) { return windowWalkGraph() }},
		{"spatial-join", func(*testing.T) (*fabric.Graph, *fabric.Sink) { return spatialJoinGraph() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runKernelGraph(t, tc.build, true)
			got := runKernelGraph(t, tc.build, false)
			if got.cycles != ref.cycles {
				t.Errorf("cycles %d != polling %d", got.cycles, ref.cycles)
			}
			if got.stats != ref.stats {
				t.Errorf("stats differ\npolling:\n%s\nidle-skip:\n%s", ref.stats, got.stats)
			}
			if got.dram != ref.dram {
				t.Errorf("DRAM bytes %d != polling %d", got.dram, ref.dram)
			}
			if !slices.Equal(got.out, ref.out) {
				t.Errorf("outputs differ: %d records vs polling %d", len(got.out), len(ref.out))
			}
		})
	}
}

// windowWalkGraph wires an R-tree window walk — 40 overlapping window
// queries over a 600-entry tree — through the shared fetch-and-fork loop.
func windowWalkGraph() (*fabric.Graph, *fabric.Sink) {
	ents := make([]rtree.Entry, 600)
	for i := range ents {
		x := uint32(i%30) * 30
		y := uint32(i/30) * 30
		ents[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 25, MaxY: y + 25}, ID: uint32(i)}
	}
	tr := rtree.Build(defaultHBM(), RegionTables, ents, 1024)
	var threads []record.Rec
	for i := uint32(0); i < 40; i++ {
		x, y := i%8*100, i/8*100
		threads = append(threads, record.Make(x, y, x+150, y+150, tr.Root, 0, 0, i))
	}
	g := fabric.NewGraph()
	g.AttachHBM(tr.HBM)
	snk := wireTreeWalk(g, "rtw", threads,
		[]fabric.Fetch{{Words: rtree.NodeWords, Addr: func(r record.Rec) uint32 { return tr.NodeAddr(r.Get(rtPtr)) }}},
		expandRTreeNode, rtMark,
		func(r *record.Rec) {
			*r = record.Make(r.Get(rtResID), r.Get(rtTag))
		}, 16)
	return g, snk
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
