package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aurochs/internal/record"
)

// zipfBuildSide returns n [key, val] build rows whose keys are Zipf(1.2)
// over [0, 2^20): a handful of keys own most rows, so their bucket chains
// are thousands of nodes long and every insert on them retries the build
// loop's CAS-prepend once per competing insert.
func zipfBuildSide(n int) []record.Rec {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 1<<20-1)
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(z.Uint64()), uint32(i))
	}
	return recs
}

// TestSkewedBuildKeysDrain: a Zipf-skewed build side drains through the
// build loop's CAS retry ring instead of wedging it. With k contenders on
// one bucket the retries grow as O(k²), so an ungated loop entry admits
// more live threads than the ring has token slots and the simulation
// deadlocks with every link full; the admission bound Graph.Run derives
// from the ring keeps the population below that.
func TestSkewedBuildKeysDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-row skewed join simulates ~10M cycles")
	}
	build := zipfBuildSide(1 << 16)
	probe := make([]record.Rec, 4096)
	for i := range probe {
		probe[i] = record.Make(uint32(i), uint32(1_000_000+i))
	}
	got, res, err := HashJoin(nil, build, probe, HashJoinOptions{Pipelines: 1})
	if err != nil {
		t.Fatalf("skewed build: %v", err)
	}
	gotJoin := make(map[[2]uint32][]uint32)
	for _, m := range got {
		key := [2]uint32{m.Get(0), m.Get(1)}
		gotJoin[key] = append(gotJoin[key], m.Get(2))
	}
	for _, vs := range gotJoin {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	if want := refJoin(build, probe); !reflect.DeepEqual(gotJoin, want) {
		t.Fatalf("%d matches differ from the host join's %d keys", len(got), len(want))
	}
	t.Logf("%d matches in %d cycles", len(got), res.Cycles)
}
