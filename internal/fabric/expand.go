package fabric

import (
	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Fetch is one block a DRAMExpand thread reads: Words words starting at
// Addr(thread).
type Fetch struct {
	Words int
	Addr  func(record.Rec) uint32
}

// expandMaxRequests bounds a DRAMExpand's DRAM requests in flight; the node
// admits expandMaxRequests/len(fetches) threads at a time.
const expandMaxRequests = 64

// DRAMExpand fuses wide DRAM block fetches with a fork tile: each thread
// fetches its blocks (too wide to live in the thread record) and spawns
// zero or more child threads from them. This is the tree-walk primitive of
// figs. 6b and 9: B-tree descent and R-tree window queries fetch one node
// block per thread; the spatial join of fig. 9b holds a pair of nodes and
// fetches one block from each tree. The block size hides DRAM latency and
// keeps the pipeline full.
type DRAMExpand struct {
	name    string
	h       *dram.HBM
	fetches []Fetch
	expand  func(dst []record.Rec, r record.Rec, blocks [][]uint32) []record.Rec
	kids    []record.Rec // children buffer handed to expand, reused across threads
	ctl     *LoopCtl
	in      *sim.Link
	out     *sim.Link

	maxOutstanding int
	backlog        ring.Queue[record.Rec]
	outstanding    int
	free           []*fetchGroup
	ready          ring.Queue[record.Rec]
	eosIn          bool
	eos            bool

	stallCnt, fetchCnt *sim.Counter
}

// fetchGroup is one thread's blocks in flight. Groups are pooled on the
// node, and each owns one read buffer per block that the HBM fills in place
// (see dram.Request), so a fetch allocates nothing once the pool covers the
// in-flight window. A buffer belongs to the HBM while its read is in flight
// and to expand while it runs; it is reused once expand returns.
type fetchGroup struct {
	d       *DRAMExpand
	r       record.Rec
	bufs    [][]uint32     // per-block read buffers, in fetches order
	done    func([]uint32) // every block's completion callback
	arrived int
}

// NewDRAMExpand builds the node. Each thread reads the blocks in fetches;
// expand receives a children buffer dst (empty, reused from thread to
// thread), the thread, and the blocks in fetches order, and returns dst
// with the child threads appended (none kills the parent). The node copies
// the children out before the next expand call, and reuses the block
// buffers once expand returns, so expand must retain neither dst, blocks,
// nor any block. ctl must be the enclosing loop's control when the node
// sits inside a cyclic pipeline.
func NewDRAMExpand(g *Graph, name string, fetches []Fetch,
	expand func(dst []record.Rec, r record.Rec, blocks [][]uint32) []record.Rec, ctl *LoopCtl, in, out *sim.Link) *DRAMExpand {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	if len(fetches) == 0 {
		panic("fabric: dram expand needs at least one fetch")
	}
	n := &DRAMExpand{
		name: name, h: g.HBM, fetches: fetches, expand: expand,
		ctl: ctl, in: in, out: out, maxOutstanding: expandMaxRequests / len(fetches),
	}
	n.stallCnt = g.Stats().Counter(name + ".dram_stall")
	n.fetchCnt = g.Stats().Counter(name + ".fetches")
	g.Add(n)
	return n
}

// Name implements sim.Component.
func (d *DRAMExpand) Name() string { return d.name }

// InputLinks implements sim.InputPorts.
func (d *DRAMExpand) InputLinks() []*sim.Link { return []*sim.Link{d.in} }

// OutputLinks implements sim.OutputPorts.
func (d *DRAMExpand) OutputLinks() []*sim.Link { return []*sim.Link{d.out} }

// Done implements sim.Component.
func (d *DRAMExpand) Done() bool { return d.eos }

// Idle implements sim.Idler: see DRAMNode.Idle.
func (d *DRAMExpand) Idle(int64) bool {
	if d.ready.Len() > 0 || d.backlog.Len() > 0 {
		return false
	}
	if !d.eosIn && !d.in.Empty() {
		return false
	}
	if d.eosIn && !d.eos && d.outstanding == 0 {
		return false
	}
	return true
}

// Tick implements sim.Component.
func (d *DRAMExpand) Tick(cycle int64) {
	// Emit matured children, one dense vector per cycle.
	if d.ready.Len() > 0 && d.out.CanPush() {
		n := d.ready.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := d.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			*v.PushRef() = *d.ready.Front()
			d.ready.Drop()
		}
	}
	// Submit fetches. A refused first block stalls the node; once it is
	// in flight the thread is committed, so a refused later block is read
	// functionally to complete the group (charging a stall).
	for d.backlog.Len() > 0 && d.outstanding < d.maxOutstanding && d.ready.Len() < 8*record.NumLanes {
		r := *d.backlog.Front()
		grp := d.group()
		grp.r = r
		f := d.fetches[0]
		if !d.h.SubmitAt(cycle, dram.Request{Addr: f.Addr(r), Words: f.Words, Data: grp.bufs[0], Done: grp.done}) {
			d.stallCnt.Add(1)
			break
		}
		d.free = d.free[:len(d.free)-1]
		d.outstanding++
		d.backlog.Drop()
		d.fetchCnt.Add(1)
		for i, f := range d.fetches[1:] {
			buf := grp.bufs[i+1]
			if !d.h.SubmitAt(cycle, dram.Request{Addr: f.Addr(r), Words: f.Words, Data: buf, Done: grp.done}) {
				d.stallCnt.Add(1)
				grp.done(d.h.ReadWords(buf, f.Addr(r)))
			}
		}
	}
	// Accept input.
	if !d.eosIn && !d.in.Empty() && d.backlog.Len() <= 2*record.NumLanes {
		f := d.in.Peek()
		d.in.Drop()
		if f.EOS {
			d.eosIn = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					*d.backlog.PushRefDirty() = f.Vec.Lane[i]
				}
			}
		}
	}
	// Forward EOS once drained.
	if d.eosIn && !d.eos && d.backlog.Len() == 0 && d.outstanding == 0 && d.ready.Len() == 0 && d.out.CanPush() {
		d.out.PushEOS(cycle)
		d.eos = true
	}
}

// group returns the top of the free fetch-group pool, growing the pool
// when it is empty. The caller pops it once its first block is accepted.
//
// lint:hotalloc-ok — the pool grows to at most maxOutstanding groups, each
// built once with its per-block buffers and completion callback, and is
// reused after that.
func (d *DRAMExpand) group() *fetchGroup {
	if len(d.free) == 0 {
		grp := &fetchGroup{d: d, bufs: make([][]uint32, len(d.fetches))}
		for i, f := range d.fetches {
			grp.bufs[i] = make([]uint32, f.Words)
		}
		grp.done = func([]uint32) { grp.arrive() }
		d.free = append(d.free, grp)
	}
	return d.free[len(d.free)-1]
}

// arrive counts a landed block (the HBM filled it into the group's own
// buffer); the last block to land expands the thread and returns the group
// to the pool.
func (grp *fetchGroup) arrive() {
	grp.arrived++
	if grp.arrived < len(grp.bufs) {
		return
	}
	d := grp.d
	d.outstanding--
	d.kids = d.expand(d.kids[:0], grp.r, grp.bufs)
	if d.ctl != nil {
		d.ctl.Spawn(len(d.kids) - 1)
	}
	for i := range d.kids {
		*d.ready.PushRefDirty() = d.kids[i]
	}
	grp.arrived = 0
	d.free = append(d.free, grp)
}
