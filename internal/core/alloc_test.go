package core

import (
	"math/rand"
	"runtime"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// allocBytes returns the bytes the heap allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCountOnlyKernelsAllocPerRow bounds the host bytes allocated per input
// row by the kernels whose exit stream is only counted. Their sources read
// the caller's slice or generate each thread as it streams, and their sinks
// store nothing; copying the stream into vectors at the source, or into a
// growing record slice at the sink, would each cost a 52-byte record per
// row and more. HashJoin stores its matches, so its bound is looser; it
// measured 613 B/row while its probe sinks grew one slice by append, and
// 369 with chunked sinks. RTreeWindow pins the tree walk's fetch path:
// each node fetch reads into its fetch group's own buffer and forks into a
// reused children buffer. Allocating both per fetch measured 574 B/row;
// now it is 80.
func TestCountOnlyKernelsAllocPerRow(t *testing.T) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint32, n)
	recs := make([]record.Rec, n)
	for i := range keys {
		if rng.Float64() < 0.8 {
			keys[i] = uint32(rng.Intn(8))
		} else {
			keys[i] = uint32(rng.Intn(4096))
		}
		recs[i] = record.Make(rng.Uint32(), uint32(i))
	}
	// An R-tree over n points and n/16 small windows, one per 16 points.
	const maxCoord = 1 << 16
	ents := make([]rtree.Entry, n)
	for i := range ents {
		x, y := uint32(rng.Intn(maxCoord)), uint32(rng.Intn(maxCoord))
		ents[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, ID: uint32(i)}
	}
	tree := rtree.Build(dram.New(dram.DefaultConfig()), RegionTables, ents, maxCoord)
	windows := make([]WindowQuery, n/16)
	for i := range windows {
		x, y := uint32(rng.Intn(maxCoord-512)), uint32(rng.Intn(maxCoord-512))
		windows[i] = WindowQuery{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 512, MaxY: y + 512}, Tag: uint32(i)}
	}

	for _, tc := range []struct {
		name  string
		limit uint64 // bytes per row
		run   func(hbm *dram.HBM) error
	}{
		{"HashAggregate", 32, func(hbm *dram.HBM) error {
			_, _, err := HashAggregate(DefaultHashTableParams(n), keys, hbm)
			return err
		}},
		{"BuildHashTable", 96, func(hbm *dram.HBM) error {
			_, _, err := BuildHashTable(DefaultHashTableParams(n), recs, hbm)
			return err
		}},
		{"HashJoin", 448, func(hbm *dram.HBM) error {
			_, _, err := HashJoin(hbm, recs, recs, HashJoinOptions{Pipelines: 16})
			return err
		}},
		{"RTreeWindow", 128, func(*dram.HBM) error {
			_, _, err := RTreeWindow(tree, windows, 4)
			return err
		}},
	} {
		hbm := dram.New(dram.DefaultConfig())
		var err error
		got := allocBytes(func() { err = tc.run(hbm) }) / n
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %d B/row", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s allocated %d B/row, want <= %d", tc.name, got, tc.limit)
		}
	}
}
