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
	spec spad.Spec
	in   *sim.Link
	out  *sim.Link
	stat *sim.Stats

	maxOutstanding int
	backlog        ring.Queue[record.Rec]
	outstanding    int
	ready          ring.Queue[record.Rec]
	eosIn          bool
	eos            bool

	wdata []uint32    // scratch for write payloads (consumed synchronously by SubmitAt)
	resp  [1]uint32   // scratch for atomic responses (Apply may not retain resp)
	stage record.Rec  // the record being completed (see complete)
	reads []*dramRead // free read slots (see read)

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

// dramRead is one read in flight: the thread, the buffer the HBM fills in
// place (see dram.Request), and the completion callback. Slots are pooled
// on the node; a slot's buffer is free again once complete returns, since
// Apply may not retain resp.
type dramRead struct {
	r    record.Rec
	buf  []uint32
	done func([]uint32)
}

// read returns the top free read slot, building one when the pool is
// empty. The caller pops it once SubmitAt accepts the read.
func (d *DRAMNode) read() *dramRead {
	if len(d.reads) == 0 {
		rd := &dramRead{buf: make([]uint32, d.width())}
		rd.done = func(data []uint32) {
			d.complete(&rd.r, data)
			d.reads = append(d.reads, rd)
		}
		d.reads = append(d.reads, rd)
	}
	return d.reads[len(d.reads)-1]
}

// submit pushes backlogged records into the memory system, stalling when
// the response side backs up (bounded buffering, like the scratchpad's
// response compactor). A posted write — plain or atomic — is acknowledged
// inside SubmitAt, so it completes here without a callback.
//
// lint:hotalloc-ok — a read draws a pooled slot (read) whose buffer the
// HBM fills in place, and writes and atomics use the node's scratch
// (d.wdata, d.resp). Both pools stop growing once they cover the widest
// payload and the in-flight window (at most maxOutstanding reads).
func (d *DRAMNode) submit(cycle int64) {
	for d.backlog.Len() > 0 && d.outstanding < d.maxOutstanding &&
		d.ready.Len()+d.outstanding < 8*record.NumLanes {
		r := d.backlog.Front()
		w := d.width()
		addr := d.spec.Addr(r)
		req := dram.Request{Addr: addr, Words: w}
		var resp []uint32
		var rd *dramRead
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
			rd = d.read()
			rd.r = *r
			req.Data, req.Done = rd.buf, rd.done
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
		if rd != nil {
			d.reads = d.reads[:len(d.reads)-1]
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
// when the controller retires the request); the runner asks every Idle
// on every cycle, so the next time this node is asked it sees the
// mutations below. The
// record is staged in d.stage so handing it to Apply does not move it to
// the heap.
func (d *DRAMNode) complete(r *record.Rec, resp []uint32) {
	d.outstanding--
	d.stage = *r
	keep := true
	if d.spec.Apply != nil {
		keep = d.spec.Apply(&d.stage, resp)
	}
	if keep {
		*d.ready.PushRefDirty() = d.stage
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
