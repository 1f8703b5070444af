// Package gorgon is the Gorgon baseline: the same fabric and memory system
// as Aurochs but restricted to the algorithms the original accelerator
// supports — sort-based joins and aggregations, and brute-force scans in
// place of index structures (paper §I, fig. 11). The contrast with the
// Aurochs kernels is purely algorithmic (O(n log n) vs O(n), table scans vs
// O(log n) probes) on identical hardware, which is exactly how the paper
// frames it.
package gorgon

import (
	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// Join is Gorgon's equi-join: a sort-merge join (its hash-free kernel).
func Join(hbm *dram.HBM, a, b []record.Rec) ([]record.Rec, core.Result, error) {
	return core.SortMergeJoin(hbm, a, b, 2, func(r record.Rec) uint64 { return uint64(r.Get(0)) })
}

// RangeQuery answers a key-range predicate with a full table scan — Gorgon
// has no index structures, so every range query streams the whole table
// through a filter tile.
func RangeQuery(hbm *dram.HBM, table core.SortedRun, lo, hi uint32) (int, core.Result, error) {
	if hbm == nil {
		panic("gorgon: range query needs the table's HBM")
	}
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	in, hit := g.Link("gsc.in"), g.Link("gsc.hit")
	fabric.NewDRAMScan(g, "gsc.scan", []fabric.Extent{table.Extent()}, table.RecWords, in)
	g.Add(fabric.NewFilter("gsc.pred", func(r *record.Rec) int {
		if k := r.Get(0); k >= lo && k <= hi {
			return 0
		}
		return -1
	}, in, []fabric.Output{{Link: hit}}, nil))
	snk := fabric.NewCountSink("gsc.sink", hit)
	g.Add(snk)
	cycles, err := g.Run(int64(table.Recs)*64 + 1_000_000)
	res := core.Result{Cycles: cycles, Stats: g.Stats(), DRAMBytes: g.HBM.BytesMoved()}
	return snk.Count(), res, err
}

// SpatialJoin is Gorgon's spatial join: with no spatial index, it presorts
// the larger table on the Z-order of its coordinates and then, for every
// probe rectangle, scans the full sorted table through a compare tile — the
// O(n·m) nested-loop behaviour softened only by the sort's locality, giving
// the O(n log n)-per-probe-batch growth of fig. 11b. probe records are
// [minX, minY, maxX, maxY]; table records [x, y, id].
func SpatialJoin(hbm *dram.HBM, table []record.Rec, probes []record.Rec) (int, core.Result, error) {
	var total core.Result
	if hbm == nil {
		hbm = dram.New(dram.DefaultConfig())
	}
	// Presort the larger table by Morton code (reuses the fabric sort).
	run := core.MaterializeRun(hbm, core.RegionTables, table, 3)
	sorted, sres, err := core.Sort(hbm, run, func(r record.Rec) uint64 {
		return uint64(morton(r.Get(0), r.Get(1)))
	})
	if err != nil {
		return 0, total, err
	}
	total.Cycles += sres.Cycles
	total.DRAMBytes += sres.DRAMBytes

	// Nested loop: every probe rectangle streams the whole table. One
	// fabric pass evaluates all probes against one table scan by keeping
	// the probe set in a compute-tile closure (all-to-all compare), which
	// is the most charitable mapping Gorgon allows.
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	in, hit := g.Link("gsp.in"), g.Link("gsp.hit")
	fabric.NewDRAMScan(g, "gsp.scan", []fabric.Extent{sorted.Extent()}, 3, in)
	hits := 0
	g.Add(fabric.NewMap("gsp.cmp", func(r *record.Rec) {
		x, y := r.Get(0), r.Get(1)
		n := 0
		for _, p := range probes {
			if x >= p.Get(0) && y >= p.Get(1) && x <= p.Get(2) && y <= p.Get(3) {
				n++
			}
		}
		hits += n
	}, in, hit))
	snk := fabric.NewCountSink("gsp.sink", hit)
	g.Add(snk)
	cycles, err := g.Run(int64(len(table))*64*int64(len(probes)+1) + 1_000_000)
	if err != nil {
		return 0, total, err
	}
	// An all-to-all compare cannot hide behind one pass: each record needs
	// len(probes) comparisons at 16 lanes/cycle, so charge the serialized
	// compare time beyond what the single streaming pass covered.
	compareCycles := int64(len(table)) * int64(len(probes)) / 16
	if compareCycles > cycles {
		cycles = compareCycles
	}
	total.Cycles += cycles
	total.DRAMBytes += g.HBM.BytesMoved()
	total.Stats = g.Stats()
	return hits, total, nil
}

// morton interleaves the low 16 bits of x and y.
func morton(x, y uint32) uint32 {
	sp := func(v uint32) uint32 {
		v &= 0xFFFF
		v = (v | v<<8) & 0x00FF00FF
		v = (v | v<<4) & 0x0F0F0F0F
		v = (v | v<<2) & 0x33333333
		v = (v | v<<1) & 0x55555555
		return v
	}
	return sp(x) | sp(y)<<1
}

// SortedAggregate models Gorgon's group-by: sort on the group key, then a
// linear scan with an accumulator (vs. Aurochs' hash aggregation).
func SortedAggregate(hbm *dram.HBM, rows []record.Rec) (int, core.Result, error) {
	if hbm == nil {
		hbm = dram.New(dram.DefaultConfig())
	}
	var total core.Result
	run := core.MaterializeRun(hbm, core.RegionTables, rows, 2)
	sorted, sres, err := core.Sort(hbm, run, func(r record.Rec) uint64 { return uint64(r.Get(0)) })
	if err != nil {
		return 0, total, err
	}
	total.Cycles += sres.Cycles
	total.DRAMBytes += sres.DRAMBytes

	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	in, out := g.Link("gag.in"), g.Link("gag.out")
	fabric.NewDRAMScan(g, "gag.scan", []fabric.Extent{sorted.Extent()}, 2, in)
	groups := 0
	last := uint32(0xFFFFFFFF)
	g.Add(fabric.NewMap("gag.acc", func(r *record.Rec) {
		if r.Get(0) != last {
			groups++
			last = r.Get(0)
		}
	}, in, out))
	snk := fabric.NewCountSink("gag.sink", out)
	g.Add(snk)
	cycles, err := g.Run(int64(len(rows))*64 + 1_000_000)
	if err != nil {
		return 0, total, err
	}
	total.Cycles += cycles
	total.DRAMBytes += g.HBM.BytesMoved()
	return groups, total, nil
}
