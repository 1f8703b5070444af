package rtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"aurochs/internal/dram"
	"aurochs/internal/index/zorder"
)

func randomPoints(n int, maxCoord uint32, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Uint32()%maxCoord, rng.Uint32()%maxCoord
		out[i] = Entry{Rect: Rect{x, y, x, y}, ID: uint32(i)}
	}
	return out
}

func refWindow(entries []Entry, q Rect) map[uint32]bool {
	out := map[uint32]bool{}
	for _, e := range entries {
		if e.Rect.Intersects(q) {
			out[e.ID] = true
		}
	}
	return out
}

func TestWindowMatchesReference(t *testing.T) {
	const maxC = 100000
	entries := randomPoints(5000, maxC, 1)
	tr := Build(dram.New(dram.DefaultConfig()), 0, entries, maxC)
	if err := quick.Check(func(ax, ay, w, h uint32) bool {
		q := Rect{ax % maxC, ay % maxC, 0, 0}
		q.MaxX = q.MinX + w%(maxC/10)
		q.MaxY = q.MinY + h%(maxC/10)
		want := refWindow(entries, q)
		got := tr.Window(q)
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRectEntriesOverlap(t *testing.T) {
	// Rectangles (not points) with real overlap.
	entries := []Entry{
		{Rect: Rect{0, 0, 10, 10}, ID: 1},
		{Rect: Rect{5, 5, 15, 15}, ID: 2},
		{Rect: Rect{20, 20, 30, 30}, ID: 3},
	}
	tr := Build(dram.New(dram.DefaultConfig()), 0, entries, 100)
	got := tr.Window(Rect{8, 8, 9, 9})
	if len(got) != 2 {
		t.Fatalf("window hit %v, want ids 1,2", got)
	}
	if got := tr.Window(Rect{40, 40, 50, 50}); len(got) != 0 {
		t.Errorf("empty window returned %v", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := Build(dram.New(dram.DefaultConfig()), 0, nil, 100)
	if got := tr.Window(Rect{0, 0, 100, 100}); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
}

func TestBoundsCoverEverything(t *testing.T) {
	entries := randomPoints(1000, 50000, 2)
	tr := Build(dram.New(dram.DefaultConfig()), 0, entries, 50000)
	for _, e := range entries[:50] {
		if !tr.Bounds.Intersects(e.Rect) {
			t.Fatalf("root MBR %+v misses entry %+v", tr.Bounds, e)
		}
	}
	got := tr.Window(tr.Bounds)
	if len(got) != len(entries) {
		t.Fatalf("full-bounds window: %d of %d", len(got), len(entries))
	}
}

// TestLogarithmicVisits: a small window on a large index must touch far
// fewer nodes than the tree holds — the asymptotic advantage of fig. 11b.
func TestLogarithmicVisits(t *testing.T) {
	const maxC = 1 << 20
	entries := randomPoints(20000, maxC, 3)
	tr := Build(dram.New(dram.DefaultConfig()), 0, entries, maxC)
	visited := tr.NodesVisited(Rect{maxC / 2, maxC / 2, maxC/2 + 1000, maxC/2 + 1000})
	if visited > int(tr.Nodes)/10 {
		t.Errorf("small window visited %d of %d nodes", visited, tr.Nodes)
	}
}

func TestHeightGrowth(t *testing.T) {
	small := Build(dram.New(dram.DefaultConfig()), 0, randomPoints(Fanout, 100, 4), 100)
	big := Build(dram.New(dram.DefaultConfig()), 0, randomPoints(4096, 1<<20, 5), 1<<20)
	if small.Height != 1 {
		t.Errorf("fanout entries: height %d", small.Height)
	}
	if big.Height < 3 {
		t.Errorf("4096 entries at fanout 8: height %d", big.Height)
	}
}

func TestRectPredicates(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if !a.Intersects(Rect{10, 10, 20, 20}) {
		t.Error("touching rectangles must intersect (inclusive bounds)")
	}
	if a.Intersects(Rect{11, 0, 20, 10}) {
		t.Error("disjoint rectangles intersect")
	}
	if !a.Contains(10, 0) || a.Contains(11, 0) {
		t.Error("contains broken")
	}
}

// legacyZSort is the comparator Build used before it precomputed keys: two
// Z encodings per comparison under sort.SliceStable.
func legacyZSort(entries []Entry, maxCoord uint32) []Entry {
	sorted := append([]Entry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		zi := zorder.Encode(
			zorder.Quantize((sorted[i].Rect.MinX+sorted[i].Rect.MaxX)/2, maxCoord),
			zorder.Quantize((sorted[i].Rect.MinY+sorted[i].Rect.MaxY)/2, maxCoord))
		zj := zorder.Encode(
			zorder.Quantize((sorted[j].Rect.MinX+sorted[j].Rect.MaxX)/2, maxCoord),
			zorder.Quantize((sorted[j].Rect.MinY+sorted[j].Rect.MaxY)/2, maxCoord))
		return zi < zj
	})
	return sorted
}

// TestBuildMatchesLegacySort: with many entries sharing a center (so the
// sort's stability decides their order), Build lays out exactly the tree
// the per-comparison-encoding sort produced.
func TestBuildMatchesLegacySort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxC := uint32(1 + rng.Intn(4000))
		n := rng.Intn(3000)
		centers := 1 + rng.Intn(64)
		cx := make([]uint32, centers)
		cy := make([]uint32, centers)
		for i := range cx {
			cx[i], cy[i] = rng.Uint32()%maxC, rng.Uint32()%maxC
		}
		entries := make([]Entry, n)
		for i := range entries {
			c := rng.Intn(centers)
			// Symmetric extents keep the center (up to integer halving).
			r := rng.Uint32() % 4
			x, y := cx[c], cy[c]
			if x < r || y < r || x+r > maxC || y+r > maxC {
				r = 0
			}
			entries[i] = Entry{Rect: Rect{x - r, y - r, x + r, y + r}, ID: uint32(i)}
		}
		got := Build(dram.New(dram.DefaultConfig()), 64, entries, maxC)
		want := pack(dram.New(dram.DefaultConfig()), 64, legacyZSort(entries, maxC), maxC)
		if got.Root != want.Root || got.Nodes != want.Nodes || got.Height != want.Height || got.Bounds != want.Bounds {
			t.Fatalf("seed %d: tree (root %d, nodes %d, height %d) != legacy (root %d, nodes %d, height %d)",
				seed, got.Root, got.Nodes, got.Height, want.Root, want.Nodes, want.Height)
		}
		gw := got.HBM.SnapshotWords(got.Base, int(got.WordsUsed()))
		ww := want.HBM.SnapshotWords(want.Base, int(want.WordsUsed()))
		if !slices.Equal(gw, ww) {
			t.Fatalf("seed %d: node words differ from the legacy layout", seed)
		}
	}
}
