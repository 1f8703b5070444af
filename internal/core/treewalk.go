package core

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// Tree walks (paper §III-A fig. 6b, §IV-C fig. 9): threads recirculate
// through a block-fetch-and-fork stage, walking multiple paths through an
// index simultaneously. A DRAM spill queue on the recirculating path keeps
// fork fan-out from deadlocking the cycle.

// B-tree search thread schema: [lo, hi, ptr, resKey, resVal, mark, tag].
const (
	btLo = iota
	btHi
	btPtr
	btResKey
	btResVal
	btMark
	btTag
)

// RangeQuery is one [Lo, Hi] key-range lookup, tagged by the caller.
type RangeQuery struct {
	Lo, Hi uint32
	Tag    uint32
}

// BTreeSearch runs a batch of range queries against an immutable B-tree on
// the fabric, across p independent pipelines sharing the HBM. Results are
// [key, val, tag] records, one per matching entry. Point lookups are ranges
// with Lo == Hi.
func BTreeSearch(t *btree.Tree, queries []RangeQuery, p int) ([]record.Rec, Result, error) {
	m, res, err := BTreeSearchMatches(t, queries, p)
	return m.Records(), res, err
}

// BTreeSearchMatches is BTreeSearch leaving the results in the walk's
// sinks (see Matches).
func BTreeSearchMatches(t *btree.Tree, queries []RangeQuery, p int) (Matches, Result, error) {
	threads := make([]record.Rec, len(queries))
	for i, q := range queries {
		threads[i] = record.Make(q.Lo, q.Hi, t.Root, 0, 0, 0, q.Tag)
	}
	fetches := []fabric.Fetch{{Words: btree.NodeWords, Addr: func(r record.Rec) uint32 { return t.NodeAddr(r.Get(btPtr)) }}}
	out, res, err := runTreeWalks(t.HBM, threads, p, budgetFor(len(queries))*4,
		func(g *fabric.Graph, k int, threads []record.Rec) *fabric.Sink {
			return wireTreeWalk(g, fmt.Sprintf("bts%d", k), threads, fetches, expandBTreeNode, btMark,
				func(r *record.Rec) {
					*r = record.Make(r.Get(btResKey), r.Get(btResVal), r.Get(btTag))
				}, uint32(k))
		})
	if err != nil {
		return nil, res, fmt.Errorf("btree search: %w", err)
	}
	return out, res, nil
}

// runTreeWalks splits threads round-robin across p pipelines on one graph
// sharing h, wires pipeline k with wire, runs the graph, and returns the
// sinks in pipeline order.
func runTreeWalks(h *dram.HBM, threads []record.Rec, p int, budget int64,
	wire func(g *fabric.Graph, k int, threads []record.Rec) *fabric.Sink) (Matches, Result, error) {
	if p <= 0 {
		p = 1
	}
	g := fabric.NewGraph()
	g.AttachHBM(h)
	sinks := make(Matches, p)
	for k := range sinks {
		var mine []record.Rec
		for i := k; i < len(threads); i += p {
			mine = append(mine, threads[i])
		}
		sinks[k] = wire(g, k, mine)
	}
	res, err := runGraph(g, budget)
	if err != nil {
		return nil, res, err
	}
	return sinks, res, nil
}

// wireTreeWalk assembles one recirculating fetch-and-fork pipeline: loop
// merge, DRAM expand reading fetches per thread, route filter, DRAM spill
// queue on the cyclic path, and the result sink — behind a projection map
// unless project is nil.
func wireTreeWalk(g *fabric.Graph, pf string, threads []record.Rec, fetches []fabric.Fetch,
	expand func(dst []record.Rec, r record.Rec, blocks [][]uint32) []record.Rec,
	markField int, project func(*record.Rec), spillSlot uint32) *fabric.Sink {

	ctl := fabric.NewLoopCtl()
	ext := g.Link(pf + ".ext")
	body := g.Link(pf + ".body")
	walked := g.Link(pf + ".walked")
	recirc := g.Link(pf + ".recirc")
	recircQ := g.Link(pf + ".recircQ")
	found := g.Link(pf + ".found")

	g.Add(fabric.NewSource(pf+".in", threads, ext))
	g.Add(fabric.NewLoopMerge(pf+".entry", recircQ, ext, body, ctl))
	fabric.NewDRAMExpand(g, pf+".fetch", fetches, expand, ctl, body, walked)
	g.Add(fabric.NewFilter(pf+".route", func(r *record.Rec) int {
		if r.Get(markField) == 1 {
			return 0
		}
		return 1
	}, walked, []fabric.Output{
		{Link: found, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	fabric.NewSpillQueue(g, pf+".spill", RegionSpill+spillSlot*(1<<23), record.MaxFields, 256, recirc, recircQ)

	out := found
	if project != nil {
		out = g.Link(pf + ".out")
		g.Add(fabric.NewMap(pf+".project", project, found, out))
	}
	snk := fabric.NewSink(pf+".sink", out)
	g.Add(snk)
	return snk
}

// expandBTreeNode is the fork function of the B-tree walk: internal nodes
// spawn one child thread per subtree whose key range can intersect the
// query; leaves spawn one result thread per matching entry. Children are
// appended to out.
func expandBTreeNode(out []record.Rec, r record.Rec, blocks [][]uint32) []record.Rec {
	node := blocks[0]
	lo, hi := r.Get(btLo), r.Get(btHi)
	hdr := node[0]
	n := int(hdr >> 1)
	isLeaf := hdr&1 == 1
	keys := node[1 : 1+btree.Fanout]
	vals := node[1+btree.Fanout : 1+2*btree.Fanout]
	if isLeaf {
		for i := 0; i < n; i++ {
			if keys[i] >= lo && keys[i] <= hi {
				c := r.Set(btResKey, keys[i])
				c = c.Set(btResVal, vals[i])
				out = append(out, c.Set(btMark, 1))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		// Child i covers [keys[i], keys[i+1]]; the high bound stays
		// inclusive because duplicate runs can spill backward across a
		// node boundary (see btree.childFor).
		low := keys[i]
		if i == 0 {
			low = 0
		}
		high := ^uint32(0)
		if i < n-1 {
			high = keys[i+1]
		}
		if high >= lo && low <= hi {
			out = append(out, r.Set(btPtr, vals[i]).Set(btMark, 0))
		}
	}
	return out
}

// R-tree walk thread schema:
// [qMinX, qMinY, qMaxX, qMaxY, ptr, resID, mark, tag].
const (
	rtMinX = iota
	rtMinY
	rtMaxX
	rtMaxY
	rtPtr
	rtResID
	rtMark
	rtTag
)

// WindowQuery is one rectangle query, tagged by the caller. A spatial
// index-nested-loop join is a batch of window queries — one per probe-side
// record, with the tag carrying the probe row id (fig. 9b).
type WindowQuery struct {
	Rect rtree.Rect
	Tag  uint32
}

// RTreeWindow runs a batch of window queries against a packed R-tree on
// the fabric, across p pipelines — the paper's "multiple smaller window
// queries in parallel" (§IV-C). Results are [id, tag] records, one per
// intersecting entry. Search paths diverge — overlapping inner rectangles
// mean a thread forks down multiple subtrees — and the spill queue absorbs
// the fan-out.
func RTreeWindow(t *rtree.Tree, queries []WindowQuery, p int) ([]record.Rec, Result, error) {
	m, res, err := RTreeWindowMatches(t, queries, p)
	return m.Records(), res, err
}

// RTreeWindowMatches is RTreeWindow leaving the results in the walk's
// sinks (see Matches).
func RTreeWindowMatches(t *rtree.Tree, queries []WindowQuery, p int) (Matches, Result, error) {
	threads := make([]record.Rec, len(queries))
	for i, q := range queries {
		threads[i] = record.Make(q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, t.Root, 0, 0, q.Tag)
	}
	fetches := []fabric.Fetch{{Words: rtree.NodeWords, Addr: func(r record.Rec) uint32 { return t.NodeAddr(r.Get(rtPtr)) }}}
	out, res, err := runTreeWalks(t.HBM, threads, p, budgetFor(len(queries))*8,
		func(g *fabric.Graph, k int, threads []record.Rec) *fabric.Sink {
			return wireTreeWalk(g, fmt.Sprintf("rtw%d", k), threads, fetches, expandRTreeNode, rtMark,
				func(r *record.Rec) {
					*r = record.Make(r.Get(rtResID), r.Get(rtTag))
				}, uint32(16+k))
		})
	if err != nil {
		return nil, res, fmt.Errorf("rtree window: %w", err)
	}
	return out, res, nil
}

// expandRTreeNode forks a window-query thread down every child whose
// bounding rectangle intersects the query; leaf entries that intersect
// become result threads. Children are appended to out.
func expandRTreeNode(out []record.Rec, r record.Rec, blocks [][]uint32) []record.Rec {
	node := blocks[0]
	q := rtree.Rect{MinX: r.Get(rtMinX), MinY: r.Get(rtMinY), MaxX: r.Get(rtMaxX), MaxY: r.Get(rtMaxY)}
	hdr := node[0]
	n := int(hdr >> 1)
	isLeaf := hdr&1 == 1
	for i := 0; i < n; i++ {
		w := 1 + i*5
		e := rtree.Rect{MinX: node[w], MinY: node[w+1], MaxX: node[w+2], MaxY: node[w+3]}
		if !q.Intersects(e) {
			continue
		}
		if isLeaf {
			out = append(out, r.Set(rtResID, node[w+4]).Set(rtMark, 1))
		} else {
			out = append(out, r.Set(rtPtr, node[w+4]).Set(rtMark, 0))
		}
	}
	return out
}
