package core

import (
	"math/rand"
	"runtime"
	"testing"

	"aurochs/internal/dram"
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
// the caller's slice and their sinks store nothing; copying the stream into
// vectors at the source, or into a growing record slice at the sink, would
// each cost a 52-byte record per row and more.
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

	for _, tc := range []struct {
		name  string
		limit uint64 // bytes per row
		run   func(hbm *dram.HBM) error
	}{
		{"HashAggregate", 128, func(hbm *dram.HBM) error {
			_, _, err := HashAggregate(DefaultHashTableParams(n), keys, hbm)
			return err
		}},
		{"BuildHashTable", 96, func(hbm *dram.HBM) error {
			_, _, err := BuildHashTable(DefaultHashTableParams(n), recs, hbm)
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
