package core

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// Hash aggregation (paper §IV-A: "High-performance hash tables are the
// basis of hash joins and hash-based aggregations"): one node per distinct
// group key holding a running count, maintained lock-free. Each thread
// walks its bucket chain; a key match becomes a fetch-and-add on the
// group's counter, a chain miss becomes an insert-if-absent — write a fresh
// node, CAS it onto the head, and on CAS failure re-walk from the observed
// head because the winning insert may be this thread's own key.
//
// Aggregation-thread schema:
// [key, ptr, headSeen, slot, nkey, nnext, obs, mark].
const (
	agKey = iota
	agPtr
	agHeadSeen
	agSlot
	agNKey
	agNNext
	agObs
	agMark
)

// Aggregation node layout: [key, count, next].
// AggResult is a built aggregation table.
type AggResult struct {
	Table *HashTable
}

// NodesLinked counts nodes reachable from the bucket heads. Losing
// CAS threads stamp slots they never link (append-only structures reclaim
// nothing), so this is the real group-node count, below Table.Inserted.
func (a *AggResult) NodesLinked() int {
	n := 0
	for b := uint32(0); b < a.Table.Params.Buckets; b++ {
		ptr := a.Table.Heads.Read(b)
		for ptr != Nil {
			n++
			_, _, next := a.Table.readNode(ptr)
			ptr = next
		}
	}
	return n
}

// Groups walks every bucket chain and returns the per-key counts.
func (a *AggResult) Groups() map[uint32]int64 {
	out := make(map[uint32]int64)
	for b := uint32(0); b < a.Table.Params.Buckets; b++ {
		ptr := a.Table.Heads.Read(b)
		for ptr != Nil {
			k, cnt, next := a.Table.readNode(ptr)
			out[k] += int64(cnt)
			ptr = next
		}
	}
	return out
}

// HashAggregate runs the lock-free counting aggregation over keys on the
// fabric and returns the group table plus timing. hbm may be nil.
func HashAggregate(p HashTableParams, keys []uint32, hbm *dram.HBM) (*AggResult, Result, error) {
	if p.Buckets == 0 || p.Buckets&(p.Buckets-1) != 0 {
		return nil, Result{}, fmt.Errorf("core: buckets must be a power of two, got %d", p.Buckets)
	}
	if hbm == nil {
		hbm = defaultHBM()
	}
	g := fabric.NewGraph()
	g.AttachHBM(hbm)

	heads := spad.NewMem(16, int(p.Buckets+15)/16, 0)
	heads.Fill(Nil)
	// Each thread stamps at most one slot, so len(keys) bounds the nodes.
	nodes := newNodeMem(p.SpadNodes, uint32(len(keys)), nodeWords)
	ht := &HashTable{Params: p, Heads: heads, Nodes: nodes, HBM: hbm}

	// Threads are full-width from the source, so one schema covers the
	// whole pipeline (field order matches the ag* constants).
	aggS := record.NewSchema("key", "ptr", "headSeen", "slot", "nkey", "nnext", "obs", "mark")

	// Ingress: build each thread [key, 0, 0, Nil, 0, 0, 0, 0] as it
	// streams, then read the bucket head; the walk starts there.
	src := g.Link("agg.src")
	headIn := g.Link("agg.headIn")
	ext := g.Link("agg.ext")
	g.Add(fabric.NewSourceFunc("agg.in", len(keys), func(i int, r *record.Rec) {
		*r = record.Rec{N: agMark + 1}
		r.F[agKey] = keys[i]
		r.F[agSlot] = Nil
	}, src).Typed(aggS))
	g.Add(fabric.NewMap("agg.hash", func(r *record.Rec) {
		r.Put(agPtr, Hash32(r.Get(agKey))&(p.Buckets-1))
	}, src, headIn).Typed(aggS, aggS))
	g.Add(spad.NewTile(p.Tuning.spadConfig("agg.head"), heads, spad.Spec{
		Op:    spad.OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(agPtr) },
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(agPtr, resp[0])
			r.Put(agHeadSeen, resp[0])
			return true
		},
		In:  aggS,
		Out: aggS,
	}, headIn, ext, g.Stats()))

	// The walk loop.
	ctl := fabric.NewLoopCtl()
	body := g.Link("agg.body")
	recircJoin := g.Link("agg.recircJoin")
	g.Add(fabric.NewLoopMerge("agg.entry", recircJoin, ext, body, ctl).Typed(aggS, aggS, aggS))

	// Route: chain end → insert path; otherwise fetch the node.
	fetchIn := g.Link("agg.fetchIn")
	insertIn := g.Link("agg.insertIn")
	g.Add(fabric.NewFilter("agg.end?", func(r *record.Rec) int {
		if r.Get(agPtr) == Nil {
			return 1
		}
		return 0
	}, body, []fabric.Output{
		{Link: fetchIn},
		{Link: insertIn},
	}, nil).Cyclic().Typed(aggS))

	// Fetch and compare.
	fetched := g.Link("agg.fetched")
	g.Add(spad.NewTile(p.Tuning.spadConfig("agg.nodeR"), nodes, spad.Spec{
		Op:    spad.OpRead,
		Width: nodeWords,
		Addr:  func(r *record.Rec) uint32 { return r.Get(agPtr) * nodeWords },
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(agNKey, resp[0])
			r.Put(agNNext, resp[2])
			return true
		},
		In:  aggS,
		Out: aggS,
	}, fetchIn, fetched, g.Stats()))
	faaIn := g.Link("agg.faaIn")
	walkOn := g.Link("agg.walkOn")
	g.Add(fabric.NewFilter("agg.match?", func(r *record.Rec) int {
		if r.Get(agNKey) == r.Get(agKey) {
			return 0 // found the group: bump its counter
		}
		return 1 // keep walking (agPtr advances below)
	}, fetched, []fabric.Output{
		{Link: faaIn},
		{Link: walkOn, NoEOS: true},
	}, nil).Cyclic().Typed(aggS))
	stepped := g.Link("agg.stepped")
	g.Add(fabric.NewMap("agg.step", func(r *record.Rec) {
		r.Put(agPtr, r.Get(agNNext))
	}, walkOn, stepped).Cyclic().Typed(aggS, aggS))

	// Count bump: FAA on the node's count word, then exit.
	done := g.Link("agg.done")
	g.Add(spad.NewTile(p.Tuning.spadConfig("agg.count"), nodes, spad.Spec{
		Op:   spad.OpFAA,
		Addr: func(r *record.Rec) uint32 { return r.Get(agPtr)*nodeWords + 1 },
		Data: func(*record.Rec, int) uint32 { return 1 },
		Apply: func(r *record.Rec, resp []uint32) bool {
			return true
		},
		In:  aggS,
		Out: aggS,
	}, faaIn, done, g.Stats()))
	exitFilter := g.Link("agg.exitIn")
	g.Add(fabric.NewMap("agg.id", func(*record.Rec) {}, done, exitFilter).Cyclic().Typed(aggS, aggS))
	sinkIn := g.Link("agg.sinkIn")
	g.Add(fabric.NewFilter("agg.exit", func(*record.Rec) int { return 0 }, exitFilter,
		[]fabric.Output{{Link: sinkIn, Exit: true}}, ctl).Cyclic().Typed(aggS))
	snk := fabric.NewCountSink("agg.sink", sinkIn).Typed(aggS)
	g.Add(snk)

	// Insert path: stamp a slot once, write [key, 0, next=headSeen], CAS
	// the head; on failure re-walk from the observed head (the winner may
	// hold our key).
	slotCtr := uint32(0)
	stamped := g.Link("agg.stamped")
	g.Add(fabric.NewMap("agg.stamp", func(r *record.Rec) {
		if r.Get(agSlot) == Nil {
			if slotCtr >= p.SpadNodes {
				panic("core: aggregation table exceeds on-chip nodes (size groups, not rows)")
			}
			r.Put(agSlot, slotCtr)
			slotCtr++
		}
	}, insertIn, stamped).Cyclic().Typed(aggS, aggS))
	wrote := g.Link("agg.wrote")
	g.Add(spad.NewTile(p.Tuning.spadConfig("agg.nodeW"), nodes, spad.Spec{
		Op:    spad.OpWrite,
		Width: nodeWords,
		Addr:  func(r *record.Rec) uint32 { return r.Get(agSlot) * nodeWords },
		Data: func(r *record.Rec, i int) uint32 {
			switch i {
			case 0:
				return r.Get(agKey)
			case 1:
				return 0 // count starts at zero; the FAA after link adds 1
			default:
				return r.Get(agHeadSeen)
			}
		},
		In:  aggS,
		Out: aggS,
		// Each insert writes the slot it just stamped and no other thread
		// holds that slot, so the node writes are disjoint.
		DisjointAddrs: true,
	}, stamped, wrote, g.Stats()))
	casOut := g.Link("agg.casOut")
	g.Add(spad.NewTile(p.Tuning.spadConfig("agg.cas"), heads, spad.Spec{
		Op:   spad.OpCAS,
		Addr: func(r *record.Rec) uint32 { return Hash32(r.Get(agKey)) & (p.Buckets - 1) },
		Data: func(r *record.Rec, i int) uint32 {
			if i == 0 {
				return r.Get(agHeadSeen)
			}
			return r.Get(agSlot)
		},
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(agObs, resp[0])
			return true
		},
		In:          aggS,
		Out:         aggS,
		OrderWaiver: "lock-free CAS-prepend retry loop; every interleaving yields a complete chain",
	}, wrote, casOut, g.Stats()))
	// CAS success: this thread's node is linked; bump it (count was 0).
	// CAS failure: re-walk from the observed head.
	casWin := g.Link("agg.casWin")
	casLose := g.Link("agg.casLose")
	g.Add(fabric.NewFilter("agg.casRoute", func(r *record.Rec) int {
		if r.Get(agObs) == r.Get(agHeadSeen) {
			return 0
		}
		return 1
	}, casOut, []fabric.Output{
		{Link: casWin, NoEOS: true},
		{Link: casLose, NoEOS: true},
	}, nil).Cyclic().Typed(aggS))
	// Winner: point at its own node and recirculate through the walk —
	// it will match its own key immediately and FAA count 0 → 1.
	winStep := g.Link("agg.winStep")
	g.Add(fabric.NewMap("agg.winPtr", func(r *record.Rec) {
		r.Put(agPtr, r.Get(agSlot))
	}, casWin, winStep).Cyclic().Typed(aggS, aggS))
	// Loser: restart the walk at the observed head.
	loseStep := g.Link("agg.losePtr")
	g.Add(fabric.NewMap("agg.losePtr", func(r *record.Rec) {
		r.Put(agPtr, r.Get(agObs))
		r.Put(agHeadSeen, r.Get(agObs))
	}, casLose, loseStep).Cyclic().Typed(aggS, aggS))

	// Rejoin the three recirculating paths.
	r1 := g.Link("agg.r1")
	g.Add(fabric.NewMerge("agg.rejoin1", stepped, winStep, r1).Cyclic().Typed(aggS, aggS, aggS))
	g.Add(fabric.NewMerge("agg.rejoin2", r1, loseStep, recircJoin).Cyclic().Typed(aggS, aggS, aggS))

	res, err := runGraph(g, budgetFor(len(keys))*4)
	if err != nil {
		return nil, res, fmt.Errorf("hash aggregate: %w", err)
	}
	if snk.Count() != len(keys) {
		return nil, res, fmt.Errorf("hash aggregate: %d of %d threads completed", snk.Count(), len(keys))
	}
	ht.Inserted = slotCtr
	return &AggResult{Table: ht}, res, nil
}
