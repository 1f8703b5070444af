package core

import (
	"math/rand"
	"sort"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
)

func TestBTreeSearchMatchesReference(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	rng := rand.New(rand.NewSource(21))
	items := make([]btree.KV, 4000)
	for i := range items {
		items[i] = btree.KV{Key: rng.Uint32() % 20000, Val: uint32(i)}
	}
	tr := btree.Build(h, 0, items)

	queries := make([]RangeQuery, 60)
	for i := range queries {
		lo := rng.Uint32() % 20000
		queries[i] = RangeQuery{Lo: lo, Hi: lo + rng.Uint32()%500, Tag: uint32(i)}
	}
	got, res, err := BTreeSearch(tr, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.DRAMBytes <= 0 {
		t.Fatalf("timing missing: %+v", res)
	}
	// Group results by tag and compare against the functional Range.
	byTag := map[uint32][]uint32{}
	for _, r := range got {
		byTag[r.Get(2)] = append(byTag[r.Get(2)], r.Get(0))
	}
	for i, q := range queries {
		want := tr.Range(q.Lo, q.Hi)
		g := byTag[uint32(i)]
		if len(g) != len(want) {
			t.Fatalf("query %d [%d,%d]: %d hits, want %d", i, q.Lo, q.Hi, len(g), len(want))
		}
		sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
		for k := range want {
			if g[k] != want[k].Key {
				t.Fatalf("query %d: hit key %d, want %d", i, g[k], want[k].Key)
			}
		}
	}
}

func TestBTreePointLookups(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	items := make([]btree.KV, 1000)
	for i := range items {
		items[i] = btree.KV{Key: uint32(i * 2), Val: uint32(i)}
	}
	tr := btree.Build(h, 0, items)
	queries := []RangeQuery{
		{Lo: 500, Hi: 500, Tag: 0},   // present
		{Lo: 501, Hi: 501, Tag: 1},   // absent (odd)
		{Lo: 0, Hi: 0, Tag: 2},       // first
		{Lo: 1998, Hi: 1998, Tag: 3}, // last
	}
	got, _, err := BTreeSearch(tr, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[uint32]int{}
	for _, r := range got {
		hits[r.Get(2)]++
	}
	for tag, want := range map[uint32]int{0: 1, 1: 0, 2: 1, 3: 1} {
		if hits[tag] != want {
			t.Errorf("tag %d: %d hits, want %d", tag, hits[tag], want)
		}
	}
}

func TestBTreeDuplicatesAcrossLeaves(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	// 40 copies of one key guarantee the run spans multiple leaves.
	var items []btree.KV
	for i := 0; i < 40; i++ {
		items = append(items, btree.KV{Key: 777, Val: uint32(i)})
	}
	for i := 0; i < 200; i++ {
		items = append(items, btree.KV{Key: uint32(i * 10), Val: 0})
	}
	tr := btree.Build(h, 0, items)
	got, _, err := BTreeSearch(tr, []RangeQuery{{Lo: 777, Hi: 777}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("found %d duplicates, want 40", len(got))
	}
}

func TestRTreeWindowMatchesReference(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	rng := rand.New(rand.NewSource(31))
	const maxC = 1 << 16
	entries := make([]rtree.Entry, 3000)
	for i := range entries {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, ID: uint32(i)}
	}
	tr := rtree.Build(h, 0, entries, maxC)

	queries := make([]WindowQuery, 40)
	for i := range queries {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		queries[i] = WindowQuery{
			Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 3000, MaxY: y + 3000},
			Tag:  uint32(i),
		}
	}
	got, res, err := RTreeWindow(tr, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	byTag := map[uint32]map[uint32]bool{}
	for _, r := range got {
		m := byTag[r.Get(1)]
		if m == nil {
			m = map[uint32]bool{}
			byTag[r.Get(1)] = m
		}
		if m[r.Get(0)] {
			t.Fatalf("duplicate hit id=%d tag=%d", r.Get(0), r.Get(1))
		}
		m[r.Get(0)] = true
	}
	for i, q := range queries {
		want := tr.Window(q.Rect)
		g := byTag[uint32(i)]
		if len(g) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", i, len(g), len(want))
		}
		for _, id := range want {
			if !g[id] {
				t.Fatalf("query %d missing id %d", i, id)
			}
		}
	}
}

// TestRTreeHighFanoutSpills: a window covering the whole space forks a
// thread down every path — the spill queue must absorb it without deadlock.
func TestRTreeHighFanoutSpills(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	rng := rand.New(rand.NewSource(32))
	const maxC = 1 << 16
	entries := make([]rtree.Entry, 8000)
	for i := range entries {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, ID: uint32(i)}
	}
	tr := rtree.Build(h, 0, entries, maxC)
	got, _, err := RTreeWindow(tr, []WindowQuery{{Rect: rtree.Rect{MinX: 0, MinY: 0, MaxX: maxC, MaxY: maxC}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("full-space window returned %d of %d", len(got), len(entries))
	}
}

func TestBTreeEmptyQueryBatch(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	tr := btree.Build(h, 0, []btree.KV{{Key: 1, Val: 1}})
	got, _, err := BTreeSearch(tr, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("no queries produced %d results", len(got))
	}
}

// walkPin is one tree walk's simulated outcome on a seeded input: cycles,
// DRAM bytes, and the fetch-and-fork and spill counters by key.
type walkPin struct {
	cycles, dramBytes int64
	stats             map[string]int64
}

func checkWalkPin(t *testing.T, res Result, err error, want walkPin) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != want.cycles || res.DRAMBytes != want.dramBytes {
		t.Errorf("cycles=%d dramBytes=%d, pinned %d and %d", res.Cycles, res.DRAMBytes, want.cycles, want.dramBytes)
	}
	for k, v := range want.stats {
		if got := res.Stats.Get(k); got != v {
			t.Errorf("%s=%d, pinned %d", k, got, v)
		}
	}
}

// TestTreeWalkPinned pins the three tree walks — B-tree range search and
// R-tree window queries at one and four pipelines, and the two-tree
// spatial join — on seeded inputs. The fetch-and-fork node, the spill
// queue and the walk wiring are all on the measured path, so a change to
// any of them that moves a cycle, a DRAM byte, a fetch, a DRAM stall or a
// spilled thread fails here.
func TestTreeWalkPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	items := make([]btree.KV, 6000)
	for i := range items {
		items[i] = btree.KV{Key: rng.Uint32() % 50000, Val: uint32(i)}
	}
	bt := btree.Build(dram.New(dram.DefaultConfig()), 0, items)
	ranges := make([]RangeQuery, 120)
	for i := range ranges {
		lo := rng.Uint32() % 50000
		ranges[i] = RangeQuery{Lo: lo, Hi: lo + rng.Uint32()%2000, Tag: uint32(i)}
	}

	const maxC = 1 << 16
	ents := make([]rtree.Entry, 4000)
	for i := range ents {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		ents[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 200, MaxY: y + 200}, ID: uint32(i)}
	}
	rt := rtree.Build(dram.New(dram.DefaultConfig()), 0, ents, maxC)
	windows := make([]WindowQuery, 60)
	for i := range windows {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		windows[i] = WindowQuery{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 12000, MaxY: y + 12000}, Tag: uint32(i)}
	}

	t.Run("btree-p1", func(t *testing.T) {
		_, res, err := BTreeSearch(bt, ranges, 1)
		checkWalkPin(t, res, err, walkPin{1584, 313408, map[string]int64{
			"bts0.fetch.fetches": 1403, "bts0.fetch.dram_stall": 30, "bts0.spill.spilled": 458,
		}})
	})
	t.Run("btree-p4", func(t *testing.T) {
		_, res, err := BTreeSearch(bt, ranges, 4)
		checkWalkPin(t, res, err, walkPin{813, 269376, map[string]int64{
			"bts0.fetch.fetches": 355, "bts0.fetch.dram_stall": 13, "bts0.spill.spilled": 0,
			"bts1.fetch.fetches": 355, "bts1.fetch.dram_stall": 27, "bts1.spill.spilled": 0,
			"bts2.fetch.fetches": 341, "bts2.fetch.dram_stall": 58, "bts2.spill.spilled": 0,
			"bts3.fetch.fetches": 352, "bts3.fetch.dram_stall": 88, "bts3.spill.spilled": 0,
		}})
	})
	t.Run("rtree-p1", func(t *testing.T) {
		_, res, err := RTreeWindow(rt, windows, 1)
		checkWalkPin(t, res, err, walkPin{2423, 600832, map[string]int64{
			"rtw0.fetch.fetches": 2168, "rtw0.fetch.dram_stall": 26, "rtw0.spill.spilled": 1223,
		}})
	})
	t.Run("rtree-p4", func(t *testing.T) {
		_, res, err := RTreeWindow(rt, windows, 4)
		checkWalkPin(t, res, err, walkPin{792, 483328, map[string]int64{
			"rtw0.fetch.fetches": 555, "rtw0.fetch.dram_stall": 0, "rtw0.spill.spilled": 0,
			"rtw1.fetch.fetches": 529, "rtw1.fetch.dram_stall": 0, "rtw1.spill.spilled": 0,
			"rtw2.fetch.fetches": 544, "rtw2.fetch.dram_stall": 13, "rtw2.spill.spilled": 0,
			"rtw3.fetch.fetches": 540, "rtw3.fetch.dram_stall": 28, "rtw3.spill.spilled": 0,
		}})
	})
	t.Run("spatial-join", func(t *testing.T) {
		h := dram.New(dram.DefaultConfig())
		const joinC = 1 << 14
		ta := rtree.Build(h, RegionTables, randRects(900, joinC, 400, 42), joinC)
		tb := rtree.Build(h, RegionTables+(1<<24), randRects(700, joinC, 400, 43), joinC)
		_, res, err := RTreeSpatialJoin(ta, tb)
		checkWalkPin(t, res, err, walkPin{2402, 356480, map[string]int64{
			"sj.fetch.fetches": 772, "sj.fetch.dram_stall": 0, "sj.spill.spilled": 113,
		}})
	})
}
