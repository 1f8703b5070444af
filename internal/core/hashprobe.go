package core

import (
	"fmt"

	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// Probe-thread schema: [key..., tag, ptr, nkey..., nval, nnext, mark];
// tag carries caller payload (e.g. a probe-side row id) through the
// search, and the indices shift with the key width.
type probeFields struct {
	tag, ptr, nkey, nval, nnext, mark int
}

func probeSchema(keyWords int) probeFields {
	return probeFields{
		tag:   keyWords,
		ptr:   keyWords + 1,
		nkey:  keyWords + 2,
		nval:  2*keyWords + 2,
		nnext: 2*keyWords + 3,
		mark:  2*keyWords + 4,
	}
}

// probeInSchema returns the external probe-stream schema: [key..., tag].
func probeInSchema(keyWords int) *record.Schema {
	if keyWords == 1 {
		return record.NewSchema("key", "tag")
	}
	return record.NewSchema("key0", "key1", "tag")
}

// ProbeOptions controls the probe pipeline.
type ProbeOptions struct {
	// FirstMatchOnly stops a thread at its first key match (semi-join /
	// exists semantics). Default walks the whole chain and emits every
	// match, which is what an equi-join needs under duplicate build keys.
	FirstMatchOnly bool
}

// ProbeHashTable runs the fig. 6a probe pipeline: threads walk bucket
// collision chains, comparing their search key against each node, exiting
// with matches and refilling their lanes on termination. probes records are
// [key, tag]; the result records are [key, tag, val] for every match.
func ProbeHashTable(ht *HashTable, probes []record.Rec, opt ProbeOptions) ([]record.Rec, Result, error) {
	g := fabric.NewGraph()
	g.AttachHBM(ht.HBM)
	snk := ProbeHashTableInto(g, "prb", ht, InRecs(probes), opt)
	res, err := runGraph(g, budgetFor(len(probes)))
	if err != nil {
		return nil, res, fmt.Errorf("hash probe: %w", err)
	}
	return snk.Records(), res, nil
}

// ProbeHashTableInto wires one probe pipeline into an existing graph under
// a name prefix (see BuildHashTableInto). The returned sink collects
// [key, tag, val] matches; the caller runs the graph.
func ProbeHashTableInto(g *fabric.Graph, pf string, ht *HashTable, probes StreamIn, opt ProbeOptions) *fabric.Sink {
	p := ht.Params
	kw := p.keyWords()
	nw := p.nodeWords()
	f := probeSchema(kw)

	// Thread layout: the external [key..., tag] stream widens at the hash
	// stage with the chain-walk state; matches project back down to
	// [key..., tag, val] on the way out.
	inS := probeInSchema(kw)
	walkNames := []string{"ptr"}
	if kw == 1 {
		walkNames = append(walkNames, "nkey")
	} else {
		walkNames = append(walkNames, "nkey0", "nkey1")
	}
	walkNames = append(walkNames, "nval", "nnext", "mark")
	fullS := g.Widen(inS, walkNames...)
	outS := g.Widen(inS, "val")

	// --- ingress: hash to bucket, read the head pointer ---
	src := g.Link(pf + ".src")
	headIn := g.Link(pf + ".headIn")
	headOut := g.Link(pf + ".headOut")
	probes.attach(g, pf+".in", src, inS)
	g.Add(fabric.NewMap(pf+".hash", func(r *record.Rec) {
		// Extend to the thread schema: ptr=bucket for the head read.
		*r = r.Append(p.bucket(p.hashKey(*r)))
		for r.Len() <= f.mark {
			*r = r.Append(0)
		}
		r.Put(f.nnext, Nil)
	}, src, headIn).Typed(inS, fullS))
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".head"), ht.Heads, spad.Spec{
		Op:    spad.OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(f.ptr) },
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(f.ptr, resp[0])
			return true
		},
		In:  fullS,
		Out: fullS,
	}, headIn, headOut, g.Stats()))

	// Empty buckets terminate before the loop.
	ext := g.Link(pf + ".ext")
	g.Add(fabric.NewFilter(pf+".emptyBucket", func(r *record.Rec) int {
		if r.Get(f.ptr) == Nil {
			return -1 // miss: kill thread
		}
		return 0
	}, headOut, []fabric.Output{{Link: ext}}, nil).Typed(fullS))

	// --- recirculating chain walk ---
	// Admission bound: the walk loop spans 8 links (body, toSpad, toDram,
	// fromSpad, fromDram, fetched, forked, recirc), each LinkCapacity flits
	// of NumLanes threads. When probe chains are long — a radix-partitioned
	// join reuses the partition hash bits, so only 1/Parts of the buckets
	// are populated and chains run Parts nodes deep — a thread laps the
	// loop once per chain node, and an ungated entry fills every slot of
	// the ring: total credit-cycle deadlock (observed at 512K rows,
	// fig. 11a). Capping the live population at half the ring's token
	// capacity leaves the loop permanent slack to drain while still
	// keeping far more threads in flight than the spad tile can serve
	// per cycle, so steady-state throughput is unaffected.
	const loopLinks = 8
	ctl := fabric.NewLoopCtl().Limit(loopLinks * fabric.LinkCapacity * record.NumLanes / 2)
	body := g.Link(pf + ".body")
	recirc := g.Link(pf + ".recirc")
	g.Add(fabric.NewLoopMerge(pf+".entry", recirc, ext, body, ctl).Typed(fullS, fullS, fullS))

	// Fetch the node from SRAM or the DRAM overflow buffer.
	toSpad := g.Link(pf + ".toSpad")
	toDram := g.Link(pf + ".toDram")
	fromSpad := g.Link(pf + ".fromSpad")
	fromDram := g.Link(pf + ".fromDram")
	g.Add(fabric.NewFilter(pf+".addrSplit", func(r *record.Rec) int {
		if r.Get(f.ptr) < p.SpadNodes {
			return 0
		}
		return 1
	}, body, []fabric.Output{{Link: toSpad}, {Link: toDram}}, nil).Typed(fullS))
	applyNode := func(r *record.Rec, resp []uint32) bool {
		for i := 0; i < kw; i++ {
			r.Put(f.nkey+i, resp[i])
		}
		r.Put(f.nval, resp[kw])
		r.Put(f.nnext, resp[kw+1])
		return true
	}
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".nodeR"), ht.Nodes, spad.Spec{
		Op:    spad.OpRead,
		Width: int(nw),
		Addr:  func(r *record.Rec) uint32 { return r.Get(f.ptr) * nw },
		Apply: applyNode,
		In:    fullS,
		Out:   fullS,
	}, toSpad, fromSpad, g.Stats()))
	fabric.NewDRAMNode(g, pf+".nodeRD", spad.Spec{
		Op:    spad.OpRead,
		Width: int(nw),
		Addr: func(r *record.Rec) uint32 {
			return p.OverflowBase + (r.Get(f.ptr)-p.SpadNodes)*nw
		},
		Apply: applyNode,
		In:    fullS,
		Out:   fullS,
	}, toDram, fromDram)

	fetched := g.Link(pf + ".fetched")
	g.Add(fabric.NewMerge(pf+".fetchJoin", fromSpad, fromDram, fetched).Typed(fullS, fullS, fullS))

	// Compare and continue: a matching node emits a match thread; a
	// non-nil next continues the walk. A fork expresses "both".
	forked := g.Link(pf + ".forked")
	g.Add(fabric.NewFork(pf+".compare", func(dst []record.Rec, r *record.Rec) []record.Rec {
		// Wide keys compare field-by-field — the serialized comparison of
		// Gorgon's fields-in-time record layout.
		match := true
		for i := 0; i < kw; i++ {
			match = match && r.Get(f.nkey+i) == r.Get(i)
		}
		cont := r.Get(f.nnext) != Nil && !(match && opt.FirstMatchOnly)
		if match {
			dst = append(dst, r.Set(f.mark, 1))
		}
		if cont {
			dst = append(dst, r.Set(f.ptr, r.Get(f.nnext)).Set(f.mark, 0))
		}
		return dst
	}, fetched, forked, ctl).Typed(fullS, fullS))

	found := g.Link(pf + ".found")
	g.Add(fabric.NewFilter(pf+".route", func(r *record.Rec) int {
		if r.Get(f.mark) == 1 {
			return 0
		}
		return 1
	}, forked, []fabric.Output{
		{Link: found, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl).Typed(fullS))

	// Project matches down to [key..., tag, val].
	out := g.Link(pf + ".out")
	g.Add(fabric.NewMap(pf+".project", func(r *record.Rec) {
		var o record.Rec
		for i := 0; i < kw; i++ {
			o = o.Append(r.Get(i))
		}
		o = o.Append(r.Get(f.tag))
		*r = o.Append(r.Get(f.nval))
	}, found, out).Typed(fullS, outS))
	snk := fabric.NewSink(pf+".sink", out).Typed(outS)
	g.Add(snk)
	return snk
}
