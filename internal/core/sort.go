package core

import (
	"fmt"
	"sort"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// DRAM region plan (word addresses). Kernels composing into queries share
// one HBM; fixed disjoint arenas keep their structures apart.
const (
	RegionHashOverflow = 1 << 26 // hash-table overflow nodes
	RegionPartBlocks   = 1 << 27 // partition block arena
	RegionSpill        = 1 << 28 // spill-queue rings
	RegionSortA        = 1 << 29 // sort ping buffer
	RegionSortB        = 3 << 28 // sort pong buffer
	RegionTables       = 1 << 30 // base of table/index data
)

// Gorgon's merge sort (paper §IV-B): tiles sort on-chip at line rate, then
// high-radix merge passes conserve DRAM bandwidth. Aurochs inherits the
// kernel unchanged; LSM maintenance, sort-merge joins, and ORDER BY all sit
// on top of it.
const (
	// sortTileRecs is the records sorted per on-chip tile (256 KiB of
	// 4-word records ≈ 16K; kept a power of two).
	sortTileRecs = 1 << 14
	// sortRadix is the merge fan-in per pass.
	sortRadix = 8
)

// tileSorter is the on-chip tile-sort stage: double-buffered so the stream
// sustains line rate — one tile drains through the merge network while the
// next fills.
type tileSorter struct {
	name string
	in   *sim.Link
	out  *sim.Link
	key  fabric.KeyFn

	fill  []record.Rec
	drain []record.Rec
	// drainBase pins the full backing array behind drain (which is consumed
	// by reslicing) so the swap can recycle it as the next fill buffer: the
	// two arrays ping-pong and the sorter stops allocating once both reach
	// tile capacity.
	drainBase []record.Rec
	tile      int
	eosIn     bool
	eos       bool
}

func newTileSorter(name string, key fabric.KeyFn, tile int, in, out *sim.Link) *tileSorter {
	return &tileSorter{name: name, key: key, tile: tile, in: in, out: out}
}

func (t *tileSorter) Name() string { return t.name }

func (t *tileSorter) InputLinks() []*sim.Link { return []*sim.Link{t.in} }

func (t *tileSorter) OutputLinks() []*sim.Link { return []*sim.Link{t.out} }

func (t *tileSorter) Done() bool { return t.eos }

// Idle implements sim.Idler: nothing draining, nothing fillable, no swap
// due, and no EOS pending.
func (t *tileSorter) Idle(int64) bool {
	if len(t.drain) > 0 {
		return false
	}
	if !t.eosIn && !t.in.Empty() && len(t.fill) < t.tile {
		return false
	}
	if len(t.fill) >= t.tile || (t.eosIn && len(t.fill) > 0) {
		return false
	}
	if t.eosIn && !t.eos {
		return false
	}
	return true
}

func (t *tileSorter) Tick(cycle int64) {
	// Drain one vector.
	if len(t.drain) > 0 && t.out.CanPush() {
		var v record.Vector
		n := len(t.drain)
		if n > record.NumLanes {
			n = record.NumLanes
		}
		for i := 0; i < n; i++ {
			v.Push(t.drain[i])
		}
		t.drain = t.drain[n:]
		t.out.Push(cycle, sim.Flit{Vec: v})
	}
	// Fill one vector.
	if !t.eosIn && !t.in.Empty() && len(t.fill) < t.tile {
		f := t.in.Pop()
		if f.EOS {
			t.eosIn = true
		} else {
			// AppendRecords copies lanes without Records' per-call slice;
			// growth stops once each ping-pong buffer reaches tile
			// capacity (see the swap below).
			t.fill = f.Vec.AppendRecords(t.fill) // lint:hotalloc-ok warmup growth, buffers ping-pong at steady state
		}
	}
	// Swap when the fill tile is complete and the drain side is free. The
	// comparator closure and sort.SliceStable's internals allocate once per
	// tile swap — amortized over the tile-size cycles spent filling it.
	if len(t.drain) == 0 && (len(t.fill) >= t.tile || (t.eosIn && len(t.fill) > 0)) {
		sort.SliceStable(t.fill, func(i, j int) bool { return t.key(t.fill[i]) < t.key(t.fill[j]) }) // lint:hotalloc-ok per-tile swap, amortized
		t.drain = t.fill
		t.fill = t.drainBase[:0]
		t.drainBase = t.drain
	}
	if t.eosIn && !t.eos && len(t.fill) == 0 && len(t.drain) == 0 && t.out.CanPush() {
		t.out.Push(cycle, sim.Flit{EOS: true})
		t.eos = true
	}
}

// SortedRun locates a sorted dense run in DRAM.
type SortedRun struct {
	Base     uint32
	Recs     int
	RecWords int
}

// Extent returns the run as a scan extent.
func (r SortedRun) Extent() fabric.Extent {
	return fabric.Extent{Addr: r.Base, Words: r.Recs * r.RecWords}
}

// Sort runs the full Gorgon merge sort over a dense input run already
// resident in DRAM, double-buffering through the RegionSortA/RegionSortB
// arenas. See SortAt for an explicit scratch placement.
func Sort(hbm *dram.HBM, in SortedRun, key fabric.KeyFn) (SortedRun, Result, error) {
	return SortAt(hbm, in, key, RegionSortA, RegionSortB)
}

// SortAt runs the full Gorgon merge sort over a dense input run already
// resident in DRAM: a tile-sort pass producing sortTileRecs-sized sorted
// runs, then radix-sortRadix merge passes until one run remains, ping-pong
// buffering between the two scratch arenas. It returns the final run's
// location and the summed timing of all passes. Callers sorting several
// runs that must coexist give each its own arenas.
func SortAt(hbm *dram.HBM, in SortedRun, key fabric.KeyFn, scratchA, scratchB uint32) (SortedRun, Result, error) {
	var total Result
	if in.Recs == 0 {
		return in, total, nil
	}
	ping, pong := scratchA, scratchB
	if in.Base == ping {
		ping, pong = pong, scratchA
	}

	// Pass 0: tile sort, streaming in → sorted runs at ping.
	runs, res, err := tileSortPass(hbm, in, key, ping)
	if err != nil {
		return in, total, err
	}
	accumulate(&total, res)

	// Merge passes.
	for len(runs) > 1 {
		var next []SortedRun
		out := pong
		for i := 0; i < len(runs); i += sortRadix {
			end := i + sortRadix
			if end > len(runs) {
				end = len(runs)
			}
			merged, res, err := mergePass(hbm, runs[i:end], key, out)
			if err != nil {
				return in, total, err
			}
			accumulate(&total, res)
			next = append(next, merged)
			out += uint32(merged.Recs * merged.RecWords)
		}
		runs = next
		ping, pong = pong, ping
	}
	return runs[0], total, nil
}

// accumulate folds one phase's Result into a multi-phase kernel's total:
// cycles and DRAM bytes add, and every phase counter is summed into the
// total's Stats by name.
func accumulate(total *Result, r Result) {
	total.Cycles += r.Cycles
	total.DRAMBytes += r.DRAMBytes
	total.Workers = 1
	if total.Stats == nil {
		total.Stats = sim.NewStats()
	}
	if r.Stats != nil {
		for _, name := range r.Stats.Names() {
			total.Stats.Add(name, r.Stats.Get(name))
		}
	}
}

// tileSortPass streams the input through the tile sorter once, emitting
// sorted tile runs at base.
func tileSortPass(hbm *dram.HBM, in SortedRun, key fabric.KeyFn, base uint32) ([]SortedRun, Result, error) {
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	a, b := g.Link("srt.scan"), g.Link("srt.sorted")
	fabric.NewDRAMScan(g, "srt.in", []fabric.Extent{in.Extent()}, in.RecWords, a)
	g.Add(newTileSorter("srt.tile", key, sortTileRecs, a, b))
	app := fabric.NewDRAMAppend(g, "srt.out", base, in.RecWords, b)
	res, err := runGraph(g, budgetFor(in.Recs)*2)
	if err != nil {
		return nil, res, fmt.Errorf("tile sort: %w", err)
	}
	if app.Count() != in.Recs {
		return nil, res, fmt.Errorf("tile sort: wrote %d of %d", app.Count(), in.Recs)
	}
	var runs []SortedRun
	for off := 0; off < in.Recs; off += sortTileRecs {
		n := sortTileRecs
		if off+n > in.Recs {
			n = in.Recs - off
		}
		runs = append(runs, SortedRun{Base: base + uint32(off*in.RecWords), Recs: n, RecWords: in.RecWords})
	}
	return runs, res, nil
}

// mergePass merges up to sortRadix runs into one at base.
func mergePass(hbm *dram.HBM, runs []SortedRun, key fabric.KeyFn, base uint32) (SortedRun, Result, error) {
	if len(runs) == 1 {
		// Odd tail: copy-through (a real design would just leave it; we
		// relocate to keep output contiguous).
		g := fabric.NewGraph()
		g.AttachHBM(hbm)
		a := g.Link("mrg.scan")
		fabric.NewDRAMScan(g, "mrg.in", []fabric.Extent{runs[0].Extent()}, runs[0].RecWords, a)
		fabric.NewDRAMAppend(g, "mrg.out", base, runs[0].RecWords, a)
		res, err := runGraph(g, budgetFor(runs[0].Recs)*2)
		return SortedRun{Base: base, Recs: runs[0].Recs, RecWords: runs[0].RecWords}, res, err
	}
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	ins := make([]*sim.Link, len(runs))
	total := 0
	for i, r := range runs {
		ins[i] = g.Link(fmt.Sprintf("mrg.in%d", i))
		fabric.NewDRAMScan(g, fmt.Sprintf("mrg.scan%d", i), []fabric.Extent{r.Extent()}, r.RecWords, ins[i])
		total += r.Recs
	}
	out := g.Link("mrg.merged")
	g.Add(fabric.NewOrderedMerge("mrg.merge", key, ins, out))
	app := fabric.NewDRAMAppend(g, "mrg.out", base, runs[0].RecWords, out)
	res, err := runGraph(g, budgetFor(total)*2)
	if err != nil {
		return SortedRun{}, res, fmt.Errorf("merge pass: %w", err)
	}
	if app.Count() != total {
		return SortedRun{}, res, fmt.Errorf("merge pass: wrote %d of %d", app.Count(), total)
	}
	return SortedRun{Base: base, Recs: total, RecWords: runs[0].RecWords}, res, nil
}

// MaterializeRun writes records densely into DRAM (untimed — stands in for
// the previous operator's output already being resident).
func MaterializeRun(hbm *dram.HBM, base uint32, recs []record.Rec, recWords int) SortedRun {
	words := make([]uint32, 0, len(recs)*recWords)
	for _, r := range recs {
		for i := 0; i < recWords; i++ {
			words = append(words, r.Get(i))
		}
	}
	hbm.LoadWords(base, words)
	return SortedRun{Base: base, Recs: len(recs), RecWords: recWords}
}

// SortMergeJoin is the Gorgon-style equi-join: sort both sides, then one
// linear merge pass. Returns the matches ([aFields..., bFields...] via the
// default combiner) and summed timing. This is the baseline algorithm that
// wins at small sizes on dense access but loses asymptotically to the hash
// join (fig. 11a).
func SortMergeJoin(hbm *dram.HBM, a, b []record.Rec, recWords int, key fabric.KeyFn) ([]record.Rec, Result, error) {
	if hbm == nil {
		hbm = defaultHBM()
	}
	var total Result
	runA := MaterializeRun(hbm, RegionTables, a, recWords)
	runB := MaterializeRun(hbm, RegionTables+uint32(len(a)*recWords)+1024, b, recWords)

	sortedA, resA, err := SortAt(hbm, runA, key, RegionSortA, RegionSortA+(1<<27))
	if err != nil {
		return nil, total, err
	}
	accumulate(&total, resA)
	sortedB, resB, err := SortAt(hbm, runB, key, RegionSortB, RegionSortB+(1<<27))
	if err != nil {
		return nil, total, err
	}
	accumulate(&total, resB)

	// Final pass: stream both sorted runs through the merge-join element.
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	la, lb, lo := g.Link("smj.a"), g.Link("smj.b"), g.Link("smj.out")
	fabric.NewDRAMScan(g, "smj.scanA", []fabric.Extent{sortedA.Extent()}, recWords, la)
	fabric.NewDRAMScan(g, "smj.scanB", []fabric.Extent{sortedB.Extent()}, recWords, lb)
	g.Add(fabric.NewMergeJoin("smj.join", key, key, func(x, y record.Rec) record.Rec {
		out := x
		for i := 0; i < recWords && out.Len() < record.MaxFields; i++ {
			out = out.Append(y.Get(i))
		}
		return out
	}, la, lb, lo))
	snk := fabric.NewSink("smj.sink", lo)
	g.Add(snk)
	res, err := runGraph(g, budgetFor(len(a)+len(b))*4)
	if err != nil {
		return nil, total, fmt.Errorf("merge join: %w", err)
	}
	accumulate(&total, res)
	return snk.Records(), total, nil
}
