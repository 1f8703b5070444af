package queries

import (
	"fmt"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// AurochsEngine runs every operator on the cycle-level fabric simulator and
// converts cycles at the 1 GHz clock into cost. Functional results come out
// of the same kernel runs that produce the timing.
type AurochsEngine struct {
	// Pipelines is the stream-level parallelism applied to joins.
	Pipelines int
	// Tuning carries the ablation knobs through to the scratchpad kernels.
	Tuning core.Tuning
}

// NewAurochs returns the fabric engine with P parallel pipelines.
func NewAurochs(p int) *AurochsEngine {
	if p <= 0 {
		p = 4
	}
	return &AurochsEngine{Pipelines: p}
}

// Name implements Engine.
func (e *AurochsEngine) Name() string { return "aurochs" }

func secs(r core.Result) Cost { return Cost{Seconds: r.Seconds()} }

// EquiJoin implements Engine with the partitioned hash join (figs. 6a/7).
func (e *AurochsEngine) EquiJoin(build, probe []KV) ([]Pair, Cost, error) {
	if len(build) == 0 || len(probe) == 0 {
		return nil, Cost{}, nil
	}
	b := make([]record.Rec, len(build))
	for i, kv := range build {
		b[i] = record.Make(kv.Key, kv.Val)
	}
	p := make([]record.Rec, len(probe))
	for i, kv := range probe {
		p[i] = record.Make(kv.Key, kv.Val)
	}
	matches, res, err := core.HashJoin(nil, b, p, core.HashJoinOptions{
		Pipelines: e.Pipelines,
		Tuning:    e.Tuning,
	})
	if err != nil {
		return nil, Cost{}, fmt.Errorf("aurochs equijoin: %w", err)
	}
	pairs := make([]Pair, len(matches))
	for i, m := range matches {
		pairs[i] = Pair{Key: m.Get(0), ProbeVal: m.Get(1), BuildVal: m.Get(2)}
	}
	return pairs, secs(res), nil
}

// buildRTree materializes the pre-built spatial index (ingest work).
func buildRTree(points []Point) *rtree.Tree {
	h := dram.New(dram.DefaultConfig())
	entries := make([]rtree.Entry, len(points))
	for i, p := range points {
		entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, ID: p.ID}
	}
	return rtree.Build(h, core.RegionTables, entries, MaxCoord)
}

// SpatialProbe implements Engine: R-tree window walks (fig. 9) followed by
// the exact-distance filter tile. The kernel returns candidate (point, tag)
// pairs; the distance compare runs at line rate and is part of the same
// pipeline, so its cost rides on the window result stream.
func (e *AurochsEngine) SpatialProbe(points []Point, queries []CircleQ) ([]SPair, Cost, error) {
	byID := make(map[uint32]Point, len(points))
	for _, p := range points {
		byID[p.ID] = p
	}
	rects := make([]core.WindowQuery, len(queries))
	for i, q := range queries {
		r := circleRect(q)
		rects[i] = core.WindowQuery{
			Rect: rtree.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY},
			Tag:  uint32(i),
		}
	}
	tr := buildRTree(points)
	hits, res, err := core.RTreeWindow(tr, rects, e.Pipelines)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("aurochs spatial: %w", err)
	}
	var out []SPair
	for _, h := range hits {
		q := queries[h.Get(1)]
		if inCircle(byID[h.Get(0)], q) {
			out = append(out, SPair{ID: h.Get(0), Tag: q.Tag})
		}
	}
	return out, secs(res), nil
}

// WindowProbe implements Engine.
func (e *AurochsEngine) WindowProbe(points []Point, queries []RectQ) ([]SPair, Cost, error) {
	rects := make([]core.WindowQuery, len(queries))
	for i, q := range queries {
		rects[i] = core.WindowQuery{
			Rect: rtree.Rect{MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY},
			Tag:  uint32(i),
		}
	}
	tr := buildRTree(points)
	hits, res, err := core.RTreeWindow(tr, rects, e.Pipelines)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("aurochs window: %w", err)
	}
	out := make([]SPair, len(hits))
	for i, h := range hits {
		out[i] = SPair{ID: h.Get(0), Tag: queries[h.Get(1)].Tag}
	}
	return out, secs(res), nil
}

// TimeRange implements Engine: a B-tree range walk (fig. 6b) against the
// pre-built time index.
func (e *AurochsEngine) TimeRange(entries []KV, lo, hi uint32) ([]uint32, Cost, error) {
	h := dram.New(dram.DefaultConfig())
	items := make([]btree.KV, len(entries))
	for i, kv := range entries {
		items[i] = btree.KV{Key: kv.Key, Val: kv.Val}
	}
	tr := btree.Build(h, core.RegionTables, items)
	hits, res, err := core.BTreeSearch(tr, []core.RangeQuery{{Lo: lo, Hi: hi}}, 1)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("aurochs timerange: %w", err)
	}
	out := make([]uint32, len(hits))
	for i, r := range hits {
		out[i] = r.Get(1)
	}
	return out, secs(res), nil
}

// GroupCount implements Engine: the lock-free hash-aggregation kernel —
// key matches bump a per-group counter with FAA; misses insert-if-absent
// with CAS (paper §IV-A).
func (e *AurochsEngine) GroupCount(keys []uint32) (map[uint32]int64, Cost, error) {
	if len(keys) == 0 {
		return map[uint32]int64{}, Cost{}, nil
	}
	hp := core.DefaultHashTableParams(len(keys))
	hp.Tuning = e.Tuning
	agg, res, err := core.HashAggregate(hp, keys, nil)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("aurochs groupcount: %w", err)
	}
	return agg.Groups(), secs(res), nil
}

// Sort implements Engine with the Gorgon merge-sort kernel.
func (e *AurochsEngine) Sort(n int, rowBytes int) (Cost, error) {
	if n == 0 {
		return Cost{}, nil
	}
	recWords := (rowBytes + 3) / 4
	if recWords < 1 {
		recWords = 1
	}
	if recWords > 4 {
		recWords = 4
	}
	hbm := dram.New(dram.DefaultConfig())
	recs := make([]record.Rec, n)
	for i := range recs {
		var r record.Rec
		r = r.Append(uint32(i*2654435761 + 17))
		for w := 1; w < recWords; w++ {
			r = r.Append(uint32(i))
		}
		recs[i] = r
	}
	run := core.MaterializeRun(hbm, core.RegionTables, recs, recWords)
	_, res, err := core.Sort(hbm, run, func(r record.Rec) uint64 { return uint64(r.Get(0)) })
	if err != nil {
		return Cost{}, fmt.Errorf("aurochs sort: %w", err)
	}
	return secs(res), nil
}

// Predict implements Engine: inference maps onto the ML half of the fabric
// at 16 MACs per compute tile per cycle, with a bandwidth roofline on
// feature reads.
func (e *AurochsEngine) Predict(n int, flops int) (Cost, error) {
	tiles := float64(e.Pipelines * 4)                         // a few compute tiles per pipeline
	compute := float64(n) * float64(flops) / (16 * 2 * tiles) // 16 lanes × MAC
	mem := float64(n) * float64(flops) * 2 / dram.DefaultConfig().PeakBytesPerCycle()
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	return Cost{Seconds: cycles / core.ClockHz}, nil
}
