package core

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

func keyF0(r record.Rec) uint64 { return uint64(r.Get(0)) }

func TestSortSmallAndTiled(t *testing.T) {
	for _, n := range []int{0, 1, 100, sortTileRecs, sortTileRecs*3 + 17} {
		hbm := dram.New(dram.DefaultConfig())
		rng := rand.New(rand.NewSource(int64(n)))
		recs := make([]record.Rec, n)
		for i := range recs {
			recs[i] = record.Make(rng.Uint32(), uint32(i))
		}
		run := MaterializeRun(hbm, RegionTables, recs, 2)
		sorted, res, err := Sort(hbm, run, keyF0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 && res.Cycles <= 0 {
			t.Fatalf("n=%d: no cycles", n)
		}
		got := readRun(hbm, sorted)
		if len(got) != n {
			t.Fatalf("n=%d: read %d", n, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Get(0) > got[i].Get(0) {
				t.Fatalf("n=%d: out of order at %d", n, i)
			}
		}
		// Payload preservation: same multiset.
		seen := map[uint32]bool{}
		for _, r := range got {
			if seen[r.Get(1)] {
				t.Fatalf("n=%d: payload %d duplicated", n, r.Get(1))
			}
			seen[r.Get(1)] = true
		}
	}
}

func TestSortCostGrowsSuperlinearly(t *testing.T) {
	// Total DRAM traffic must grow with pass count: sorting 8 tiles adds a
	// merge pass over the full data relative to 1 tile.
	cost := func(n int) float64 {
		hbm := dram.New(dram.DefaultConfig())
		recs := make([]record.Rec, n)
		rng := rand.New(rand.NewSource(9))
		for i := range recs {
			recs[i] = record.Make(rng.Uint32(), 0)
		}
		run := MaterializeRun(hbm, RegionTables, recs, 2)
		_, res, err := Sort(hbm, run, keyF0)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.DRAMBytes) / float64(n)
	}
	perRecSmall := cost(sortTileRecs)
	perRecBig := cost(sortTileRecs * 16)
	if perRecBig <= perRecSmall*1.2 {
		t.Errorf("bytes/record: %0.1f (1 tile) vs %0.1f (16 tiles); extra merge pass missing", perRecSmall, perRecBig)
	}
}

func TestSortMergeJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := make([]record.Rec, 3000)
	b := make([]record.Rec, 2500)
	for i := range a {
		a[i] = record.Make(rng.Uint32()%800, uint32(i))
	}
	for i := range b {
		b[i] = record.Make(rng.Uint32()%1000, uint32(10000+i))
	}
	got, res, err := SortMergeJoin(nil, a, b, 2, keyF0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	want := 0
	cnt := map[uint32]int{}
	for _, r := range a {
		cnt[r.Get(0)]++
	}
	for _, r := range b {
		want += cnt[r.Get(0)]
	}
	if len(got) != want {
		t.Fatalf("matches=%d want %d", len(got), want)
	}
	for _, m := range got {
		if m.Get(0) != m.Get(2) {
			t.Fatalf("joined records disagree on key: %v", m)
		}
	}
}

func TestSortMergeJoinDuplicateCrossProduct(t *testing.T) {
	a := []record.Rec{record.Make(5, 1), record.Make(5, 2), record.Make(5, 3)}
	b := []record.Rec{record.Make(5, 10), record.Make(5, 20)}
	got, _, err := SortMergeJoin(nil, a, b, 2, keyF0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("cross product: %d, want 6", len(got))
	}
}

func TestSortMergeJoinDisjointKeys(t *testing.T) {
	a := []record.Rec{record.Make(1, 0), record.Make(3, 0)}
	b := []record.Rec{record.Make(2, 0), record.Make(4, 0)}
	got, _, err := SortMergeJoin(nil, a, b, 2, keyF0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("disjoint join produced %d", len(got))
	}
}

func TestHashJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	build := make([]record.Rec, 4000)
	probe := make([]record.Rec, 3000)
	for i := range build {
		build[i] = record.Make(rng.Uint32()%1500, uint32(i))
	}
	for i := range probe {
		probe[i] = record.Make(rng.Uint32()%2000, uint32(10000+i))
	}
	for _, P := range []int{1, 2, 4} {
		got, res, err := HashJoin(nil, build, probe, HashJoinOptions{Parts: 8, Pipelines: P})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if res.Cycles <= 0 || res.DRAMBytes <= 0 {
			t.Fatalf("P=%d: timing missing", P)
		}
		want := refJoin(build, probe)
		wantCount := 0
		for _, vs := range want {
			wantCount += len(vs)
		}
		if len(got) != wantCount {
			t.Fatalf("P=%d: matches=%d want %d", P, len(got), wantCount)
		}
	}
}

// TestHashJoinPipelines: the splitter routes rows on the low hash bits,
// so a pipeline count that is not a positive power of two is rejected
// instead of silently idling pipelines; valid counts match the host join.
func TestHashJoinPipelines(t *testing.T) {
	build, probe := kv(2000, 900, 3), kv(1500, 1200, 4)
	want := refJoin(build, probe)
	for _, tc := range []struct {
		p  int
		ok bool
	}{{1, true}, {2, true}, {4, true}, {3, false}, {5, false}, {6, false}, {-1, false}} {
		got, _, err := HashJoin(nil, build, probe, HashJoinOptions{Pipelines: tc.p})
		if !tc.ok {
			if err == nil {
				t.Errorf("P=%d: accepted, want an error", tc.p)
			}
			continue
		}
		if err != nil {
			t.Fatalf("P=%d: %v", tc.p, err)
		}
		gotJoin := make(map[[2]uint32][]uint32)
		for _, m := range got {
			key := [2]uint32{m.Get(0), m.Get(1)}
			gotJoin[key] = append(gotJoin[key], m.Get(2))
		}
		for _, vs := range gotJoin {
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		}
		if !reflect.DeepEqual(gotJoin, want) {
			t.Errorf("P=%d: %d matches differ from the host join's", tc.p, len(got))
		}
	}
}

// statsJoin runs a small two-pipeline HashJoin and returns its summed
// phase counters.
func statsJoin(t *testing.T) map[string]int64 {
	t.Helper()
	build, probe := kvRecs(3000, 7), kvRecs(2000, 11)
	_, res, err := HashJoin(nil, build, probe, HashJoinOptions{Parts: 8, Pipelines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("HashJoin returned nil Stats")
	}
	return res.Stats.Snapshot()
}

// TestHashJoinStatsCarryPhaseCounters: the multi-phase join's Result.Stats
// is the sum of its partition, build and probe phases' counters, not an
// empty set.
func TestHashJoinStatsCarryPhaseCounters(t *testing.T) {
	snap := statsJoin(t)
	for _, suffix := range []string{".grants", ".requests"} {
		if got := sumSuffix(snap, suffix); got <= 0 {
			t.Errorf("sum of *%s counters = %d, want > 0 (%d counters)", suffix, got, len(snap))
		}
	}
}

func sumSuffix(counters map[string]int64, suffix string) int64 {
	var n int64
	for name, v := range counters {
		if strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

func TestHashJoinMorePipelinesSpeedUp(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	build := make([]record.Rec, 8000)
	probe := make([]record.Rec, 8000)
	for i := range build {
		build[i] = record.Make(rng.Uint32(), uint32(i))
	}
	for i := range probe {
		probe[i] = record.Make(rng.Uint32(), uint32(i))
	}
	run := func(P int) int64 {
		_, res, err := HashJoin(nil, build, probe, HashJoinOptions{Parts: 8, Pipelines: P})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c4 := run(1), run(4)
	if c4 >= c1 {
		t.Errorf("P=4 (%d cyc) must beat P=1 (%d cyc)", c4, c1)
	}
}

// bufProbe watches a tileSorter's swap buffers from inside the cycle loop,
// recording the identity of every backing array drainBase ever points at.
type bufProbe struct {
	ts       *tileSorter
	backings map[*record.Rec]bool
	swaps    int
	last     *record.Rec
}

func (p *bufProbe) Name() string { return "bufprobe" }
func (p *bufProbe) Done() bool   { return true }

func (p *bufProbe) Tick(int64) {
	if len(p.ts.drainBase) == 0 {
		return
	}
	base := &p.ts.drainBase[0]
	if base != p.last {
		p.backings[base] = true
		p.swaps++
		p.last = base
	}
}

// TestTileSorterBuffersPingPong: the regression test for the fill-buffer
// reallocation the hotalloc prover surfaced — the sorter used to discard its
// drained tile (`fill = nil`) and grow a fresh one from scratch every swap.
// With the ping-pong fix, an entire multi-tile run touches exactly two
// backing arrays no matter how many tiles stream through.
func TestTileSorterBuffersPingPong(t *testing.T) {
	g := fabric.NewGraph()
	in, out := g.Link("in"), g.Link("out")
	const tile = 64
	recs := make([]record.Rec, tile*6+11) // several full tiles plus a ragged tail
	for i := range recs {
		recs[i] = record.Make(uint32((i*2654435761)%4096), uint32(i))
	}
	ts := newTileSorter("ts", keyF0, tile, in, out)
	probe := &bufProbe{ts: ts, backings: map[*record.Rec]bool{}}
	g.Add(fabric.NewSource("src", recs, in))
	g.Add(ts)
	snk := fabric.NewSink("snk", out)
	g.Add(snk, probe)
	if _, err := g.Sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != len(recs) {
		t.Fatalf("sorted %d of %d", snk.Count(), len(recs))
	}
	if probe.swaps < 6 {
		t.Fatalf("only %d tile swaps observed; want >= 6", probe.swaps)
	}
	if got := len(probe.backings); got != 2 {
		t.Errorf("drain tiles lived in %d distinct backing arrays across %d swaps; ping-pong requires exactly 2",
			got, probe.swaps)
	}
}

// kvRecs builds n [key, val] records with keys in [0, n) derived from seed.
func kvRecs(n, seed int) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		k := uint32(i*seed+7) % uint32(n)
		recs[i] = record.Make(k, uint32(seed*1000+i))
	}
	return recs
}

// readRun reads a run back from HBM.
func readRun(hbm *dram.HBM, run SortedRun) []record.Rec {
	words := hbm.SnapshotWords(run.Base, run.Recs*run.RecWords)
	out := make([]record.Rec, 0, run.Recs)
	for i := 0; i+run.RecWords <= len(words); i += run.RecWords {
		var r record.Rec
		for k := 0; k < run.RecWords; k++ {
			r = r.Append(words[i+k])
		}
		out = append(out, r)
	}
	return out
}
