package fabric

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// DRAMNode is a fabric endpoint that gathers or scatters thread records
// against the shared HBM: the paths that fetch B-tree blocks, spill hash
// partitions, and write overflow nodes. It reuses spad.Spec to describe how
// a record encodes its request; widths may be large (block fetches).
//
// Timing: each record becomes one HBM request (split into bursts by the
// DRAM model); responses return out of order and are re-vectorized, exactly
// like the scratchpad's reordering pipeline but with memory-system latency.
type DRAMNode struct {
	name string
	h    *dram.HBM
	spec spad.Spec // lint:sharedstate-ok — Spec (incl. its schemas) is immutable after construction
	in   *sim.Link
	out  *sim.Link
	stat *sim.Stats

	maxOutstanding int
	backlog        ring.Queue[record.Rec]
	outstanding    int
	ready          ring.Queue[record.Rec]
	eosIn          bool
	eos            bool

	wdata []uint32   // scratch for write payloads (consumed synchronously by SubmitAt)
	resp  [1]uint32  // scratch for atomic responses (Apply may not retain resp)
	stage record.Rec // the record being completed (see complete)

	stallCnt, reqCnt, dropCnt *sim.Counter
}

// NewDRAMNode builds a DRAM access node on graph g.
func NewDRAMNode(g *Graph, name string, spec spad.Spec, in, out *sim.Link) *DRAMNode {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	if spec.Addr == nil {
		panic("fabric: dram spec.Addr is required")
	}
	if spec.Op != spad.OpRead && spec.Data == nil {
		panic(fmt.Sprintf("fabric: dram node %s: op %s requires spec.Data", name, spec.Op))
	}
	if spec.Op == spad.OpXCHG {
		panic("fabric: dram node does not implement xchg")
	}
	n := &DRAMNode{
		name:           name,
		h:              g.HBM,
		spec:           spec,
		in:             in,
		out:            out,
		stat:           g.Stats(),
		maxOutstanding: 64,
	}
	n.stallCnt = n.stat.Counter(name + ".dram_stall")
	n.reqCnt = n.stat.Counter(name + ".dram_reqs")
	n.dropCnt = n.stat.Counter(name + ".dropped")
	g.Add(n)
	return n
}

// Name implements sim.Component.
func (d *DRAMNode) Name() string { return d.name }

// InputLinks implements sim.InputPorts.
func (d *DRAMNode) InputLinks() []*sim.Link { return []*sim.Link{d.in} }

// OutputLinks implements sim.OutputPorts.
func (d *DRAMNode) OutputLinks() []*sim.Link { return []*sim.Link{d.out} }

// Done implements sim.Component.
func (d *DRAMNode) Done() bool { return d.eos }

// Idle implements sim.Idler: with nothing buffered on either side the node
// can only wait — completions arrive via the HBM's tick, not this one.
func (d *DRAMNode) Idle(int64) bool {
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

// SharedState implements sim.StateSharer: submissions and completion
// callbacks interleave with the HBM's tick.
func (d *DRAMNode) SharedState() []any { return []any{d.h} }

// WakeHint implements sim.WakeHinter: the node has no self-timed events —
// it reacts to link flits and to HBM completions, and the HBM is a
// shared-state partner that wakes it on every non-idle memory tick.
func (d *DRAMNode) WakeHint(int64) int64 { return sim.WakeNever }

func (d *DRAMNode) width() int {
	if d.spec.Width <= 0 {
		return 1
	}
	return d.spec.Width
}

// Tick implements sim.Component.
func (d *DRAMNode) Tick(cycle int64) {
	d.emit(cycle)
	d.submit(cycle)
	d.accept()
	d.finishEOS(cycle)
}

// submit pushes backlogged records into the memory system, stalling when
// the response side backs up (bounded buffering, like the scratchpad's
// response compactor). A posted write — plain or atomic — is acknowledged
// inside SubmitAt, so it completes here without a callback.
//
// lint:hotalloc-ok — a read's completion closure (and the HBM's
// per-request buffer behind it) escapes into the HBM callback and lives
// until the response returns; one small allocation per DRAM read is
// amortized over the multi-ten-cycle round trip. Writes and atomics use
// the node's scratch (d.wdata, d.resp) and allocate nothing.
func (d *DRAMNode) submit(cycle int64) {
	for d.backlog.Len() > 0 && d.outstanding < d.maxOutstanding &&
		d.ready.Len()+d.outstanding < 8*record.NumLanes {
		r := d.backlog.Front()
		w := d.width()
		addr := d.spec.Addr(r)
		req := dram.Request{Addr: addr, Words: w}
		var resp []uint32
		switch d.spec.Op {
		case spad.OpWrite:
			// SubmitAt consumes write payloads synchronously, so the
			// scratch buffer is safe to reuse across records.
			req.Data = d.scratch(w)
			for i := 0; i < w; i++ {
				req.Data[i] = d.spec.Data(r, i)
			}
			req.Write = true
		case spad.OpRead:
			rr := *r
			req.Done = func(data []uint32) { d.complete(&rr, data) }
		case spad.OpFAA:
			// Atomic at the memory controller: mutate functionally now
			// (submissions are serialized) and respond once the update
			// is posted.
			old := d.h.ReadWord(addr)
			d.h.WriteWord(addr, old+d.spec.Data(r, 0))
			req.Write = true
			req.Data = d.scratch(1)
			req.Data[0] = old + d.spec.Data(r, 0)
			d.resp[0] = old
			resp = d.resp[:]
		case spad.OpCAS:
			cur := d.h.ReadWord(addr)
			if cur == d.spec.Data(r, 0) {
				d.h.WriteWord(addr, d.spec.Data(r, 1))
			}
			req.Write = true
			req.Data = d.scratch(1)
			req.Data[0] = d.h.ReadWord(addr)
			d.resp[0] = cur
			resp = d.resp[:]
		default:
			panic("fabric: dram node op not implemented: " + d.spec.Op.String())
		}
		if !d.h.SubmitAt(cycle, req) {
			d.stallCnt.Add(1)
			return
		}
		d.outstanding++
		if req.Write {
			d.complete(r, resp)
		}
		d.backlog.Drop()
		d.reqCnt.Add(1)
	}
}

// scratch returns the node's reusable write payload buffer, sized w.
func (d *DRAMNode) scratch(w int) []uint32 {
	if cap(d.wdata) < w {
		d.wdata = make([]uint32, w)
	}
	return d.wdata[:w]
}

// complete applies the response to the thread and queues it for output.
// For a read it runs inside the HBM's tick (the completion callback fires
// when the controller retires the request), and DRAMNode declares that HBM
// via SharedState — so the kernel's partner-tick wake channel re-examines
// this node's Idle on every HBM tick and the mutations below cannot strand
// a sleeping node. The record is staged in d.stage so handing it to Apply
// does not move it to the heap.
func (d *DRAMNode) complete(r *record.Rec, resp []uint32) {
	d.outstanding-- // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	d.stage = *r
	keep := true
	if d.spec.Apply != nil {
		keep = d.spec.Apply(&d.stage, resp)
	}
	if keep {
		*d.ready.PushRefDirty() = d.stage // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	} else {
		d.dropCnt.Add(1)
	}
}

// accept pulls one input vector into the backlog.
func (d *DRAMNode) accept() {
	if d.eosIn || d.in.Empty() || d.backlog.Len() > 2*record.NumLanes {
		return
	}
	f := d.in.Peek()
	d.in.Drop()
	if f.EOS {
		d.eosIn = true
		return
	}
	for i := 0; i < record.NumLanes; i++ {
		if f.Vec.Mask&(1<<uint(i)) != 0 {
			*d.backlog.PushRefDirty() = f.Vec.Lane[i]
		}
	}
}

// emit vectorizes completed threads, one vector per cycle.
func (d *DRAMNode) emit(cycle int64) {
	if d.ready.Len() == 0 || !d.out.CanPush() {
		return
	}
	n := d.ready.Len()
	if n > record.NumLanes {
		n = record.NumLanes
	}
	v := d.out.StageVec(cycle)
	for i := 0; i < n; i++ {
		v.Push(d.ready.Pop())
	}
}

func (d *DRAMNode) finishEOS(cycle int64) {
	if d.eos || !d.eosIn {
		return
	}
	if d.backlog.Len() > 0 || d.outstanding > 0 || d.ready.Len() > 0 {
		return
	}
	if !d.out.CanPush() {
		return
	}
	d.out.Push(cycle, sim.Flit{EOS: true})
	d.eos = true
}
