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
	expand  func(record.Rec, [][]uint32) []record.Rec
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
// node, so a fetch allocates nothing on the fabric side once the pool
// covers the in-flight window.
type fetchGroup struct {
	d       *DRAMExpand
	r       record.Rec
	blocks  [][]uint32
	done    []func([]uint32)
	arrived int
}

// NewDRAMExpand builds the node. Each thread reads the blocks in fetches;
// expand receives the thread and the blocks in fetches order and returns
// the child threads (an empty slice kills the parent). expand must not
// retain the outer blocks slice. ctl must be the enclosing loop's control
// when the node sits inside a cyclic pipeline.
func NewDRAMExpand(g *Graph, name string, fetches []Fetch,
	expand func(r record.Rec, blocks [][]uint32) []record.Rec, ctl *LoopCtl, in, out *sim.Link) *DRAMExpand {
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

// SharedState implements sim.StateSharer: the HBM fires this node's
// completion callbacks, and expansions inside a loop mutate its control.
func (d *DRAMExpand) SharedState() []any {
	if d.ctl != nil {
		return []any{d.h, d.ctl}
	}
	return []any{d.h}
}

// WakeHint implements sim.WakeHinter: no self-timed events — progress
// comes from link flits and HBM completions (shared-state partner).
func (d *DRAMExpand) WakeHint(int64) int64 { return sim.WakeNever }

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
		if !d.h.SubmitAt(cycle, dram.Request{Addr: f.Addr(r), Words: f.Words, Done: grp.done[0]}) {
			d.stallCnt.Add(1)
			break
		}
		d.free = d.free[:len(d.free)-1]
		d.outstanding++
		d.backlog.Drop()
		d.fetchCnt.Add(1)
		for i, f := range d.fetches[1:] {
			if !d.h.SubmitAt(cycle, dram.Request{Addr: f.Addr(r), Words: f.Words, Done: grp.done[i+1]}) {
				d.stallCnt.Add(1)
				grp.done[i+1](d.h.SnapshotWords(f.Addr(r), f.Words))
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
// built once with its per-block Done closures, and is reused after that.
func (d *DRAMExpand) group() *fetchGroup {
	if len(d.free) == 0 {
		grp := &fetchGroup{d: d, blocks: make([][]uint32, len(d.fetches)), done: make([]func([]uint32), len(d.fetches))}
		for i := range grp.done {
			grp.done[i] = func(data []uint32) { grp.arrive(i, data) }
		}
		d.free = append(d.free, grp)
	}
	return d.free[len(d.free)-1]
}

// arrive records block i; the last block to land expands the thread and
// returns the group to the pool.
func (grp *fetchGroup) arrive(i int, data []uint32) {
	grp.blocks[i] = data
	grp.arrived++
	if grp.arrived < len(grp.blocks) {
		return
	}
	d := grp.d
	d.outstanding--
	children := d.expand(grp.r, grp.blocks)
	if d.ctl != nil {
		d.ctl.Spawn(len(children) - 1)
	}
	for _, c := range children {
		*d.ready.PushRefDirty() = c
	}
	clear(grp.blocks)
	grp.arrived = 0
	d.free = append(d.free, grp)
}
