package aurochs

import (
	"math/rand"
	"testing"

	"aurochs/internal/area"
	"aurochs/internal/baseline/cpu"
	"aurochs/internal/baseline/gorgon"
	"aurochs/internal/baseline/gpu"
	"aurochs/internal/core"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/perfmodel"
	"aurochs/internal/queries"
	"aurochs/internal/record"
)

// One benchmark per table/figure of the paper's evaluation, plus kernel
// micro-benchmarks. Simulated-cycle results are attached as custom metrics
// (cycles/record at the fabric's 1 GHz clock); wall-clock ns/op measures
// the simulator itself.

func benchKV(n int, seed int64) []record.Rec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]record.Rec, n)
	for i := range out {
		out[i] = record.Make(rng.Uint32(), uint32(i))
	}
	return out
}

// BenchmarkFig10Area regenerates the area breakdown.
func BenchmarkFig10Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := area.Default()
		if m.ChipOverhead() < 0.04 {
			b.Fatal("area model broken")
		}
	}
	b.ReportMetric(100*area.Default().ScratchpadOverhead(), "%spad-overhead")
	b.ReportMetric(100*area.Default().ChipOverhead(), "%chip-overhead")
}

// BenchmarkFig11Join runs the fig. 11a headline kernel: the partitioned
// hash join on the cycle simulator.
func BenchmarkFig11Join(b *testing.B) {
	const n = 1 << 14
	build, probe := benchKV(n, 1), benchKV(n, 2)
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := core.HashJoin(nil, build, probe, core.HashJoinOptions{Pipelines: 8})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(2*n), "cycles/rec")
	b.ReportMetric(perfmodel.JoinThroughputGBs(n, n, float64(cycles)), "sim-GB/s")
}

// BenchmarkFig11SortMergeJoin is the Gorgon side of fig. 11a.
func BenchmarkFig11SortMergeJoin(b *testing.B) {
	const n = 1 << 14
	x, y := benchKV(n, 3), benchKV(n, 4)
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := gorgon.Join(nil, x, y)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(2*n), "cycles/rec")
}

// BenchmarkFig11Spatial is fig. 11b's Aurochs side: R-tree window probes.
func BenchmarkFig11Spatial(b *testing.B) {
	d := queries.Generate(queries.SmallScale(), 5)
	e := queries.NewAurochs(4)
	pts := make([]queries.Point, len(d.DriverStatus))
	for i, s := range d.DriverStatus {
		pts[i] = queries.Point{X: s.X, Y: s.Y, ID: uint32(i)}
	}
	circles := make([]queries.CircleQ, 256)
	for i := range circles {
		r := d.RideReqs[i]
		circles[i] = queries.CircleQ{X: r.X, Y: r.Y, R: queries.KM, Tag: uint32(i)}
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		_, cost, err := e.SpatialProbe(pts, circles)
		if err != nil {
			b.Fatal(err)
		}
		sec = cost.Seconds
	}
	b.ReportMetric(sec*1e9/float64(len(circles)), "sim-ns/query")
}

// BenchmarkFig12Scaling sweeps stream-level parallelism on the simulator.
func BenchmarkFig12Scaling(b *testing.B) {
	const n = 1 << 14
	build, probe := benchKV(n, 6), benchKV(n, 7)
	for _, p := range []int{1, 2, 4, 8} {
		p := p
		b.Run(pname(p), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				_, res, err := core.HashJoin(nil, build, probe, core.HashJoinOptions{Pipelines: p})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(2*n)/float64(cycles), "rec/cycle")
		})
	}
}

func pname(p int) string {
	return map[int]string{1: "P1", 2: "P2", 4: "P4", 8: "P8"}[p]
}

// BenchmarkFig14Queries runs the nine ridesharing queries on the Aurochs
// engine (the fig. 14 numerator).
func BenchmarkFig14Queries(b *testing.B) {
	d := queries.Generate(queries.SmallScale(), 8)
	e := queries.NewAurochs(4)
	var total float64
	for i := 0; i < b.N; i++ {
		rs, err := queries.RunAll(e, d)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rs {
			total += r.Cost.Seconds
		}
	}
	b.ReportMetric(total*1e3, "sim-ms/9-queries")
}

// BenchmarkFig14CPUBaseline is the fig. 14 denominator.
func BenchmarkFig14CPUBaseline(b *testing.B) {
	d := queries.Generate(queries.SmallScale(), 8)
	e := queries.NewCPU()
	for i := 0; i < b.N; i++ {
		if _, err := queries.RunAll(e, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarpEfficiency reproduces the §III-A GPU profiling claim.
func BenchmarkWarpEfficiency(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 1 << 18
	buckets := make([]int, n)
	for i := 0; i < n; i++ {
		buckets[rng.Intn(n)]++
	}
	trips := make([]int, n)
	for i := range trips {
		l := buckets[rng.Intn(n)]
		if l == 0 {
			l = 1
		}
		trips[i] = l
	}
	dev := gpu.V100()
	var eff float64
	for i := 0; i < b.N; i++ {
		eff = dev.DivergentLoop(trips, 8).WarpEfficiency
	}
	b.ReportMetric(100*eff, "%warp-eff")
}

// BenchmarkAblationReorder compares the Aurochs reordering scratchpad with
// Capstan's in-order dequeue on the probe kernel.
func BenchmarkAblationReorder(b *testing.B) {
	const n = 1 << 13
	build, probe := benchKV(n, 10), benchKV(n, 11)
	for _, mode := range []struct {
		name string
		tun  core.Tuning
	}{
		{"reorder", core.Tuning{}},
		{"inorder", core.Tuning{InOrderSpad: true}},
		{"no-forwarding", core.Tuning{NoForwarding: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				p := core.DefaultHashTableParams(n)
				p.Tuning = mode.tun
				ht, _, err := core.BuildHashTable(p, build, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, res, err := core.ProbeHashTable(ht, probe, core.ProbeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(n), "cycles/probe")
		})
	}
}

// BenchmarkKernelHashBuild isolates the fig. 7a build pipeline.
func BenchmarkKernelHashBuild(b *testing.B) {
	const n = 1 << 14
	input := benchKV(n, 12)
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := core.BuildHashTable(core.DefaultHashTableParams(n), input, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(n), "cycles/insert")
}

// BenchmarkKernelPartition isolates the fig. 7b pipeline.
func BenchmarkKernelPartition(b *testing.B) {
	const n = 1 << 14
	input := benchKV(n, 13)
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := core.Partition(core.DefaultPartitionParams(n, 8, 2), input, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(n), "cycles/rec")
}

// BenchmarkCPUJoin measures the real software baseline on this host.
func BenchmarkCPUJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const n = 1 << 18
	mk := func() []cpu.KV {
		out := make([]cpu.KV, n)
		for i := range out {
			out[i] = cpu.KV{Key: rng.Uint32(), Val: uint32(i)}
		}
		return out
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.HashJoin(x, y)
	}
	b.SetBytes(2 * n * 8)
}

// BenchmarkKernelHashAggregate isolates the lock-free counting aggregation.
func BenchmarkKernelHashAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const n = 1 << 14
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint32() % 1024
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := core.HashAggregate(core.DefaultHashTableParams(2048), keys, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(n), "cycles/key")
}

// BenchmarkKernelSpatialJoin runs the fig. 9b synchronized two-tree join.
func BenchmarkKernelSpatialJoin(b *testing.B) {
	h := NewHBM()
	rng := rand.New(rand.NewSource(16))
	mkTree := func(n int, base uint32) *rtree.Tree {
		ents := make([]rtree.Entry, n)
		for i := range ents {
			x, y := rng.Uint32()%(1<<14), rng.Uint32()%(1<<14)
			ents[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 150, MaxY: y + 150}, ID: uint32(i)}
		}
		return rtree.Build(h, base, ents, 1<<14)
	}
	ta := mkTree(1500, core.RegionTables)
	tb := mkTree(1500, core.RegionTables+(1<<24))
	var cycles int64
	for i := 0; i < b.N; i++ {
		pairs, res, err := core.RTreeSpatialJoin(ta, tb)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkKernelBTreeRange isolates the fig. 6b tree walk.
func BenchmarkKernelBTreeRange(b *testing.B) {
	h := NewHBM()
	rng := rand.New(rand.NewSource(17))
	items := make([]btree.KV, 1<<16)
	for i := range items {
		items[i] = btree.KV{Key: rng.Uint32(), Val: uint32(i)}
	}
	tr := btree.Build(h, core.RegionTables, items)
	queries := make([]core.RangeQuery, 512)
	for i := range queries {
		lo := rng.Uint32()
		queries[i] = core.RangeQuery{Lo: lo, Hi: lo + (1 << 22), Tag: uint32(i)}
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, res, err := core.BTreeSearch(tr, queries, 4)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(len(queries)), "cycles/query")
}
