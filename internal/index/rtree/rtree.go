// Package rtree implements the paper's packed R-tree (§IV-C, fig. 9):
// two-dimensional keys are linearized on the Z-order curve, sorted, and
// bulk-loaded bottom-up; a streaming reduction builds each internal level
// by accumulating children's bounding rectangles. Nodes allow overlapping
// rectangles, so searches may take multiple paths to the leaves — the
// fork-parallel walk Aurochs' threading model is built for.
package rtree

import (
	"slices"

	"aurochs/internal/dram"
	"aurochs/internal/index/zorder"
)

// Fanout is the entries per node; 8 five-word entries plus a header keep a
// node at 164 B, a few HBM bursts.
const Fanout = 8

// NodeWords is the DRAM footprint of one node:
// word 0: nentries<<1 | isLeaf; then Fanout entries of
// [minX, minY, maxX, maxY, ptr] (ptr = child node index, or payload id in
// a leaf).
const NodeWords = 1 + 5*Fanout

// Rect is an axis-aligned rectangle (inclusive bounds).
type Rect struct {
	MinX, MinY, MaxX, MaxY uint32
}

// Intersects reports rectangle overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Contains reports whether the point (x,y) lies inside r.
func (r Rect) Contains(x, y uint32) bool {
	return r.MinX <= x && x <= r.MaxX && r.MinY <= y && y <= r.MaxY
}

// union grows r to cover o.
func (r Rect) union(o Rect) Rect {
	if o.MinX < r.MinX {
		r.MinX = o.MinX
	}
	if o.MinY < r.MinY {
		r.MinY = o.MinY
	}
	if o.MaxX > r.MaxX {
		r.MaxX = o.MaxX
	}
	if o.MaxY > r.MaxY {
		r.MaxY = o.MaxY
	}
	return r
}

// Entry is one indexed spatial object.
type Entry struct {
	Rect Rect
	ID   uint32
}

// Tree is an immutable packed R-tree in DRAM.
type Tree struct {
	HBM    *dram.HBM
	Base   uint32
	Root   uint32
	Nodes  uint32
	Height int
	Len    int
	// Bounds is the root MBR.
	Bounds Rect
	// MaxCoord is the coordinate ceiling used for Z-quantization.
	MaxCoord uint32
}

// NodeAddr returns the word address of node idx.
func (t *Tree) NodeAddr(idx uint32) uint32 { return t.Base + idx*NodeWords }

// WordsUsed returns the DRAM words the tree occupies.
func (t *Tree) WordsUsed() uint32 { return t.Nodes * NodeWords }

// centerZ is the Z-order key of r's center on the quantized grid.
func centerZ(r Rect, maxCoord uint32) uint32 {
	return zorder.Encode(
		zorder.Quantize((r.MinX+r.MaxX)/2, maxCoord),
		zorder.Quantize((r.MinY+r.MaxY)/2, maxCoord))
}

// Build bulk-loads entries into a new tree at base. maxCoord is the
// largest coordinate value (for Z-curve quantization).
func Build(h *dram.HBM, base uint32, entries []Entry, maxCoord uint32) *Tree {
	return pack(h, base, zSort(entries, maxCoord), maxCoord)
}

// zSort linearizes entries on the Z-curve of their rectangle centers,
// keeping equal-key entries in input order. Each key is computed once and
// packed above its entry's index, so a plain sort of the packed words is
// the stable sort by key.
func zSort(entries []Entry, maxCoord uint32) []Entry {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = uint64(centerZ(e.Rect, maxCoord))<<32 | uint64(i)
	}
	slices.Sort(keys)
	sorted := make([]Entry, len(entries))
	for i, k := range keys {
		sorted[i] = entries[uint32(k)]
	}
	return sorted
}

// pack writes Z-sorted entries bottom-up into a new tree at base.
func pack(h *dram.HBM, base uint32, sorted []Entry, maxCoord uint32) *Tree {
	t := &Tree{HBM: h, Base: base, Len: len(sorted), MaxCoord: maxCoord}
	writeNode := func(idx uint32, isLeaf bool, ents []Entry) Rect {
		a := t.NodeAddr(idx)
		flag := uint32(0)
		if isLeaf {
			flag = 1
		}
		h.WriteWord(a, uint32(len(ents))<<1|flag)
		mbr := ents[0].Rect
		for i := 0; i < Fanout; i++ {
			var e Entry
			if i < len(ents) {
				e = ents[i]
				mbr = mbr.union(e.Rect)
			}
			w := a + 1 + uint32(i)*5
			h.WriteWord(w, e.Rect.MinX)
			h.WriteWord(w+1, e.Rect.MinY)
			h.WriteWord(w+2, e.Rect.MaxX)
			h.WriteWord(w+3, e.Rect.MaxY)
			h.WriteWord(w+4, e.ID)
		}
		return mbr
	}

	if len(sorted) == 0 {
		h.WriteWord(base, 1)
		t.Nodes, t.Root, t.Height = 1, 0, 1
		return t
	}

	next := uint32(0)
	var level []Entry // entries describing the current level's nodes
	for i := 0; i < len(sorted); i += Fanout {
		end := i + Fanout
		if end > len(sorted) {
			end = len(sorted)
		}
		mbr := writeNode(next, true, sorted[i:end])
		level = append(level, Entry{Rect: mbr, ID: next})
		next++
	}
	t.Height = 1
	for len(level) > 1 {
		var up []Entry
		for i := 0; i < len(level); i += Fanout {
			end := i + Fanout
			if end > len(level) {
				end = len(level)
			}
			mbr := writeNode(next, false, level[i:end])
			up = append(up, Entry{Rect: mbr, ID: next})
			next++
		}
		level = up
		t.Height++
	}
	t.Root = level[0].ID
	t.Bounds = level[0].Rect
	t.Nodes = next
	return t
}

// node reads a node functionally.
func (t *Tree) node(idx uint32) (isLeaf bool, ents []Entry) {
	a := t.NodeAddr(idx)
	hdr := t.HBM.ReadWord(a)
	n := int(hdr >> 1)
	isLeaf = hdr&1 == 1
	ents = make([]Entry, n)
	for i := 0; i < n; i++ {
		w := a + 1 + uint32(i)*5
		ents[i] = Entry{
			Rect: Rect{
				MinX: t.HBM.ReadWord(w), MinY: t.HBM.ReadWord(w + 1),
				MaxX: t.HBM.ReadWord(w + 2), MaxY: t.HBM.ReadWord(w + 3),
			},
			ID: t.HBM.ReadWord(w + 4),
		}
	}
	return isLeaf, ents
}

// Window returns the IDs of all entries whose rectangle intersects q
// (reference implementation for the fabric kernel and the CPU baseline).
func (t *Tree) Window(q Rect) []uint32 {
	if t.Len == 0 {
		return nil
	}
	var out []uint32
	stack := []uint32{t.Root}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isLeaf, ents := t.node(idx)
		for _, e := range ents {
			if !e.Rect.Intersects(q) {
				continue
			}
			if isLeaf {
				out = append(out, e.ID)
			} else {
				stack = append(stack, e.ID)
			}
		}
	}
	return out
}

// NodesVisited counts the nodes a window query touches — the work metric
// behind the O(log n) spatial-join scaling of fig. 11b.
func (t *Tree) NodesVisited(q Rect) int {
	if t.Len == 0 {
		return 0
	}
	n := 0
	stack := []uint32{t.Root}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		isLeaf, ents := t.node(idx)
		for _, e := range ents {
			if e.Rect.Intersects(q) && !isLeaf {
				stack = append(stack, e.ID)
			}
		}
	}
	return n
}
