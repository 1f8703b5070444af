package core

import (
	"fmt"
	"math/bits"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// Hash table node layout: [key..., val, next] — KeyWords + 2 words per
// node (three for 32-bit keys). Nodes
// live in an on-chip scratchpad up to SpadNodes and transparently overflow
// into a pre-allocated DRAM buffer beyond it (paper fig. 7a): a node's slot
// number is its identity in a single unified address space, and every
// reader/writer converts slot → SRAM or DRAM address with a base-offset
// calculation as threads move through the pipeline.
const nodeWords = 3 // the KeyWords = 1 layout; see (*HashTableParams).nodeWords

// HashTableParams sizes an on-chip hash table with DRAM overflow.
type HashTableParams struct {
	// Buckets is the bucket count (power of two). Bucket heads always
	// live on-chip.
	Buckets uint32
	// SpadNodes is the on-chip node capacity; slots beyond it spill to
	// the DRAM overflow buffer.
	SpadNodes uint32
	// MaxNodes bounds total insertions (on-chip + overflow).
	MaxNodes uint32
	// OverflowBase is the DRAM word address of the overflow buffer.
	OverflowBase uint32
	// KeyWords is the join-key width in 32-bit lanes (1 or 2). Keys wider
	// than a lane stay in one lane and compare field-by-field across
	// pipeline stages, exactly as Gorgon serializes wide keys (§II-B).
	KeyWords int
	// Tuning carries the ablation knobs.
	Tuning Tuning
}

// keyWords returns the effective key width.
func (p *HashTableParams) keyWords() int {
	if p.KeyWords <= 1 {
		return 1
	}
	if p.KeyWords > 2 {
		panic("core: KeyWords must be 1 or 2")
	}
	return 2
}

// nodeWords returns the words per node: keys + value + next pointer.
func (p *HashTableParams) nodeWords() uint32 {
	return uint32(p.keyWords()) + 2
}

// hashKey hashes a record's leading key fields.
func (p *HashTableParams) hashKey(r record.Rec) uint32 {
	if p.keyWords() == 1 {
		return Hash32(r.Get(0))
	}
	return Hash64(r.U64(0))
}

// DefaultHashTableParams sizes the structure for n insertions using the
// paper's scratchpad geometry: 256 KiB node scratchpad (21845 three-word
// nodes) and a bucket array with load factor near one.
func DefaultHashTableParams(n int) HashTableParams {
	buckets := uint32(1)
	for int(buckets) < n {
		buckets <<= 1
	}
	if buckets > 1<<16 {
		buckets = 1 << 16 // 256 KiB head scratchpad at 4 B/bucket
	}
	spadNodes := uint32(256 * 1024 / 4 / nodeWords)
	return HashTableParams{
		Buckets:      buckets,
		SpadNodes:    spadNodes,
		MaxNodes:     uint32(n) + 16,
		OverflowBase: 1 << 26, // clear of table data regions
	}
}

// HashTable is a built chained hash table: bucket heads in one scratchpad,
// nodes split between a node scratchpad and a DRAM overflow buffer.
type HashTable struct {
	Params HashTableParams
	Heads  *spad.Mem
	Nodes  *spad.Mem
	HBM    *dram.HBM
	// Inserted is the number of nodes allocated by the build.
	Inserted uint32
}

// bucket maps a key hash to a bucket index using the hash's HIGH bits.
// The composed radix join selects pipeline and partition class from the
// LOW bits of the very same Hash32, so a low-bit mask here would leave
// only Buckets/Parts buckets populated within one partition — chains
// Parts nodes deep and probe cost quadratic in total table size. The
// high bits are independent of the radix class, so chain length stays
// at the load factor regardless of how the input was partitioned.
func (p *HashTableParams) bucket(h uint32) uint32 {
	return h >> p.bucketShift()
}

// bucketShift is the right-shift that keeps log2(Buckets) high bits.
// Go defines x>>32 == 0 for uint32, so Buckets==1 maps everything to 0.
func (p *HashTableParams) bucketShift() uint {
	return uint(32 - bits.Len32(p.Buckets-1))
}

// bucketOf maps a key to its bucket.
func (h *HashTable) bucketOf(key uint32) uint32 {
	return h.Params.bucket(Hash32(key))
}

// nodeAddr converts a slot to (isSpad, wordAddr).
func (h *HashTable) nodeAddr(slot uint32) (bool, uint32) {
	nw := h.Params.nodeWords()
	if slot < h.Params.SpadNodes {
		return true, slot * nw
	}
	return false, h.Params.OverflowBase + (slot-h.Params.SpadNodes)*nw
}

// nodeWord reads word i of a node from SRAM or DRAM.
func (h *HashTable) nodeWord(slot, i uint32) uint32 {
	if onChip, a := h.nodeAddr(slot); onChip {
		return h.Nodes.Read(a + i)
	} else {
		return h.HBM.ReadWord(a + i)
	}
}

// readNode fetches a 32-bit-key node functionally.
func (h *HashTable) readNode(slot uint32) (key, val, next uint32) {
	return h.nodeWord(slot, 0), h.nodeWord(slot, 1), h.nodeWord(slot, 2)
}

// LookupAll walks a bucket chain functionally and returns every value
// stored under key (reference path for tests and the untimed executors).
func (h *HashTable) LookupAll(key uint32) []uint32 {
	if h.Params.keyWords() != 1 {
		panic("core: LookupAll is for 32-bit keys; use LookupAll64")
	}
	var out []uint32
	ptr := h.Heads.Read(h.bucketOf(key))
	for ptr != Nil {
		k, v, next := h.readNode(ptr)
		if k == key {
			out = append(out, v)
		}
		ptr = next
	}
	return out
}

// LookupAll64 is LookupAll for two-word keys.
func (h *HashTable) LookupAll64(key uint64) []uint32 {
	if h.Params.keyWords() != 2 {
		panic("core: LookupAll64 requires KeyWords = 2")
	}
	var out []uint32
	ptr := h.Heads.Read(h.Params.bucket(Hash64(key)))
	for ptr != Nil {
		k := uint64(h.nodeWord(ptr, 0)) | uint64(h.nodeWord(ptr, 1))<<32
		if k == key {
			out = append(out, h.nodeWord(ptr, 2))
		}
		ptr = h.nodeWord(ptr, 3)
	}
	return out
}

// Build-thread schema: [key..., val, bucket, slot, cur, obs]; indices
// shift with the key width.
type buildFields struct {
	val, bucket, slot, cur, obs int
}

func buildSchema(keyWords int) buildFields {
	return buildFields{
		val:    keyWords,
		bucket: keyWords + 1,
		slot:   keyWords + 2,
		cur:    keyWords + 3,
		obs:    keyWords + 4,
	}
}

// StreamIn describes a kernel's input stream: records built by a
// generator (a Source tile) or dense DRAM extents (a DRAMScan) — the latter
// is how join phases stream partitions back in.
type StreamIn struct {
	Gen      func(i int, r *record.Rec)
	Extents  []fabric.Extent
	RecWords int
	// N is the expected record count (the generator's count or the extent
	// total).
	N int
}

// InRecs wraps a record slice as a kernel input. The kernel reads the
// slice in place, as fabric.NewSource does.
func InRecs(recs []record.Rec) StreamIn {
	return InFunc(len(recs), func(i int, r *record.Rec) { *r = recs[i] })
}

// InFunc wraps a generator of n records as a kernel input; see
// fabric.NewSourceFunc for gen's contract.
func InFunc(n int, gen func(i int, r *record.Rec)) StreamIn {
	return StreamIn{Gen: gen, N: n}
}

// InExtents wraps DRAM extents as a kernel input.
func InExtents(ext []fabric.Extent, recWords int) StreamIn {
	n := 0
	for _, e := range ext {
		n += e.Words / recWords
	}
	return StreamIn{Extents: ext, RecWords: recWords, N: n}
}

// attach wires the input into graph g, feeding link out with records of
// the given schema (a Source carries it as declared; a DRAMScan requires
// the schema width to equal its record width).
func (in StreamIn) attach(g *fabric.Graph, name string, out *sim.Link, schema *record.Schema) {
	if in.Extents != nil {
		fabric.NewDRAMScan(g, name, in.Extents, in.RecWords, out).Typed(schema)
		return
	}
	g.Add(fabric.NewSourceFunc(name, in.N, in.Gen, out).Typed(schema))
}

// keySchema returns the external record schema of a keyed stream:
// [key, val] for one-word keys, [key0, key1, val] for two.
func keySchema(keyWords int) *record.Schema {
	if keyWords == 1 {
		return record.NewSchema("key", "val")
	}
	return record.NewSchema("key0", "key1", "val")
}

// BuildHashTable runs the fig. 7a build pipeline on the fabric: stamp a
// reserved slot per thread, scatter the node body to SRAM or the DRAM
// overflow path, then link into the bucket's collision chain with a
// lock-free CAS-prepend retry loop. input records are [key, val].
//
// hbm may be nil, in which case a fresh default HBM instance is created.
func BuildHashTable(p HashTableParams, input []record.Rec, hbm *dram.HBM) (*HashTable, Result, error) {
	if hbm == nil {
		hbm = defaultHBM()
	}
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	ht, snk, err := BuildHashTableInto(g, "bld", p, InRecs(input))
	if err != nil {
		return nil, Result{}, err
	}
	res, err := runGraph(g, budgetFor(len(input)))
	if err != nil {
		return nil, res, fmt.Errorf("hash build: %w", err)
	}
	if snk.Count() != len(input) {
		return nil, res, fmt.Errorf("hash build: %d of %d threads completed", snk.Count(), len(input))
	}
	return ht, res, nil
}

// NewHashTable allocates an empty table: bucket heads in one scratchpad
// (initialized to Nil), nodes line-interleaved in another so one node's
// words stay in one bank, and the overflow region in hbm. No pipeline is
// wired — callers stream records in through buildPipeline (via
// BuildHashTableInto or InsertHashTable) against the returned memories.
// hbm carries the overflow buffer and must be the same instance every
// pipeline graph attaches, or slot reads and writes would diverge.
func NewHashTable(p HashTableParams, hbm *dram.HBM) (*HashTable, error) {
	if p.Buckets == 0 || p.Buckets&(p.Buckets-1) != 0 {
		return nil, fmt.Errorf("core: buckets must be a power of two, got %d", p.Buckets)
	}
	heads := spad.NewMem(16, int(p.Buckets+15)/16, 0)
	heads.Fill(Nil)
	nodes := newNodeMem(p.SpadNodes, p.MaxNodes, p.nodeWords())
	return &HashTable{Params: p, Heads: heads, Nodes: nodes, HBM: hbm}, nil
}

// newNodeMem allocates the node scratchpad for a table that stamps at most
// maxSlots slots, of which at most spadNodes live on chip: the backing
// store covers min(spadNodes, maxSlots) nodes. The bank of a word depends
// only on its address, so the smaller store times every access exactly as
// the full scratchpad would.
func newNodeMem(spadNodes, maxSlots, nodeWords uint32) *spad.Mem {
	n := spadNodes
	if maxSlots < n {
		n = maxSlots
	}
	if n == 0 {
		n = 1 // NewMem needs a positive size
	}
	return spad.NewMem(16, (int(n)*int(nodeWords)+63)/64*4, 2)
}

// BuildHashTableInto wires one build pipeline into an existing graph under
// the given name prefix, so callers can instantiate several pipelines that
// share a graph and its HBM (stream-level parallelism, fig. 12). The
// returned sink counts completed insertions; the caller runs the graph.
func BuildHashTableInto(g *fabric.Graph, pf string, p HashTableParams, input StreamIn) (*HashTable, *fabric.Sink, error) {
	ht, err := NewHashTable(p, g.HBM)
	if err != nil {
		return nil, nil, err
	}
	if uint32(input.N) > p.MaxNodes {
		return nil, nil, fmt.Errorf("core: %d inputs exceed MaxNodes=%d", input.N, p.MaxNodes)
	}
	return ht, buildPipeline(g, pf, ht, input), nil
}

// InsertHashTable streams additional records into an existing table through
// the same build pipeline — the streaming-ingest path that lets two live
// streams build tables from each other's records while probing (paper
// §IV-A, "low-latency stream joins"). Safe to interleave with probes:
// CAS-prepend keeps every bucket consistent at all times.
func InsertHashTable(ht *HashTable, input []record.Rec) (Result, error) {
	if uint32(len(input))+ht.Inserted > ht.Params.MaxNodes {
		return Result{}, fmt.Errorf("core: insert would exceed MaxNodes=%d", ht.Params.MaxNodes)
	}
	g := fabric.NewGraph()
	g.AttachHBM(ht.HBM)
	snk := buildPipeline(g, "ins", ht, InRecs(input))
	res, err := runGraph(g, budgetFor(len(input)))
	if err != nil {
		return res, fmt.Errorf("hash insert: %w", err)
	}
	if snk.Count() != len(input) {
		return res, fmt.Errorf("hash insert: %d of %d threads completed", snk.Count(), len(input))
	}
	return res, nil
}

// buildPipeline wires the fig. 7a pipeline against an existing table's
// memories, continuing its slot counter.
func buildPipeline(g *fabric.Graph, pf string, ht *HashTable, input StreamIn) *fabric.Sink {
	p := ht.Params
	kw := p.keyWords()
	nw := p.nodeWords()
	f := buildSchema(kw)
	nodes, heads := ht.Nodes, ht.Heads

	// Thread layout: the external [key..., val] stream widens at the stamp
	// stage with the build-loop state; every link past it carries the full
	// schema.
	inS := keySchema(kw)
	fullS := g.Widen(inS, "bucket", "slot", "cur", "obs")

	// --- ingress: hash, stamp slot ---
	src := g.Link(pf + ".src")
	stamped := g.Link(pf + ".stamped")
	input.attach(g, pf+".in", src, inS)
	g.Add(fabric.NewMap(pf+".stamp", func(r *record.Rec) {
		*r = r.Append(p.bucket(p.hashKey(*r))) // bucket
		*r = r.Append(ht.Inserted)             // slot
		ht.Inserted++
		*r = r.Append(Nil) // cur
		*r = r.Append(0)   // obs
	}, src, stamped).Typed(inS, fullS))

	// --- node-body scatter: SRAM path or DRAM overflow path ---
	toSpadW := g.Link(pf + ".toSpadW")
	toDramW := g.Link(pf + ".toDramW")
	wroteSpad := g.Link(pf + ".wroteSpad")
	wroteDram := g.Link(pf + ".wroteDram")
	g.Add(fabric.NewFilter(pf+".split", func(r *record.Rec) int {
		if r.Get(f.slot) < p.SpadNodes {
			return 0
		}
		return 1
	}, stamped, []fabric.Output{{Link: toSpadW}, {Link: toDramW}}, nil).Typed(fullS))
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".nodeW"), nodes, spad.Spec{
		Op:    spad.OpWrite,
		Width: kw + 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(f.slot) * nw },
		Data:  func(r *record.Rec, i int) uint32 { return r.Get(i) }, // keys..., val
		In:    fullS,
		Out:   fullS,
		// Each thread scatters the body of its own freshly-reserved slot.
		DisjointAddrs: true,
	}, toSpadW, wroteSpad, g.Stats()))
	fabric.NewDRAMNode(g, pf+".nodeWD", spad.Spec{
		Op:    spad.OpWrite,
		Width: kw + 1,
		Addr: func(r *record.Rec) uint32 {
			return p.OverflowBase + (r.Get(f.slot)-p.SpadNodes)*nw
		},
		Data: func(r *record.Rec, i int) uint32 { return r.Get(i) },
		In:   fullS,
		Out:  fullS,
		// Same slot reservation, overflow half of the address space.
		DisjointAddrs: true,
	}, toDramW, wroteDram)

	ext := g.Link(pf + ".ext")
	g.Add(fabric.NewMerge(pf+".rejoin", wroteSpad, wroteDram, ext).Typed(fullS, fullS, fullS))

	// --- CAS-prepend retry loop (paper §III-A, fig. 6c) ---
	ctl := fabric.NewLoopCtl()
	body := g.Link(pf + ".body")
	recirc := g.Link(pf + ".recirc")
	recirc2 := g.Link(pf + ".recirc2")
	g.Add(fabric.NewLoopMerge(pf+".entry", recirc2, ext, body, ctl).Typed(fullS, fullS, fullS))

	// Scatter cur into the node's next field (SRAM or DRAM per slot).
	nextSpadIn := g.Link(pf + ".nextSpadIn")
	nextDramIn := g.Link(pf + ".nextDramIn")
	nextSpadOut := g.Link(pf + ".nextSpadOut")
	nextDramOut := g.Link(pf + ".nextDramOut")
	g.Add(fabric.NewFilter(pf+".nextSplit", func(r *record.Rec) int {
		if r.Get(f.slot) < p.SpadNodes {
			return 0
		}
		return 1
	}, body, []fabric.Output{{Link: nextSpadIn, NoEOS: false}, {Link: nextDramIn}}, nil).Typed(fullS))
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".nextW"), nodes, spad.Spec{
		Op:    spad.OpWrite,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(f.slot)*nw + nw - 1 },
		Data:  func(r *record.Rec, _ int) uint32 { return r.Get(f.cur) },
		In:    fullS,
		Out:   fullS,
		// A thread only ever rewrites its own slot's next field; retries of
		// one thread are causally ordered through the recirculating path.
		DisjointAddrs: true,
	}, nextSpadIn, nextSpadOut, g.Stats()))
	fabric.NewDRAMNode(g, pf+".nextWD", spad.Spec{
		Op:    spad.OpWrite,
		Width: 1,
		Addr: func(r *record.Rec) uint32 {
			return p.OverflowBase + (r.Get(f.slot)-p.SpadNodes)*nw + nw - 1
		},
		Data:          func(r *record.Rec, _ int) uint32 { return r.Get(f.cur) },
		In:            fullS,
		Out:           fullS,
		DisjointAddrs: true, // own slot's next field, overflow half
	}, nextDramIn, nextDramOut)

	casIn := g.Link(pf + ".casIn")
	casOut := g.Link(pf + ".casOut")
	g.Add(fabric.NewMerge(pf+".nextJoin", nextSpadOut, nextDramOut, casIn).Typed(fullS, fullS, fullS))

	// Atomic gather-scatter CAS on the bucket head.
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".cas"), heads, spad.Spec{
		Op:   spad.OpCAS,
		Addr: func(r *record.Rec) uint32 { return r.Get(f.bucket) },
		Data: func(r *record.Rec, i int) uint32 {
			if i == 0 {
				return r.Get(f.cur) // expected
			}
			return r.Get(f.slot) // new head
		},
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(f.obs, resp[0])
			return true
		},
		In:  fullS,
		Out: fullS,
		// CAS outcomes depend on arrival order, but the retry loop makes
		// every interleaving converge: losers observe the winning head and
		// re-link behind it, so each bucket chain ends up containing exactly
		// the inserted nodes. Chain order is unspecified by the table's
		// multiset contract (LookupAll returns all matches regardless).
		OrderWaiver: "lock-free CAS-prepend retry loop; every interleaving yields a complete chain",
	}, casIn, casOut, g.Stats()))

	// Success exits (thread dies); failure refreshes cur and retries.
	done := g.Link(pf + ".done")
	g.Add(fabric.NewFilter(pf+".retry", func(r *record.Rec) int {
		if r.Get(f.obs) == r.Get(f.cur) {
			return 0 // CAS succeeded
		}
		return 1
	}, casOut, []fabric.Output{
		{Link: done, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl).Typed(fullS))
	g.Add(fabric.NewMap(pf+".refresh", func(r *record.Rec) {
		r.Put(f.cur, r.Get(f.obs))
	}, recirc, recirc2).Cyclic().Typed(fullS, fullS))

	snk := fabric.NewCountSink(pf+".sink", done).Typed(fullS)
	g.Add(snk)
	return snk
}

// budgetFor returns a generous cycle budget for n input records.
func budgetFor(n int) int64 {
	return int64(n)*200 + 1_000_000
}
