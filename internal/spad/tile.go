package spad

import (
	"fmt"
	"math/bits"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Config sizes one scratchpad stream pipeline.
type Config struct {
	// Name identifies the tile in stats and errors.
	Name string
	// Lanes is the request vector width (default record.NumLanes).
	Lanes int
	// IssueDepth is the per-lane issue queue depth. Aurochs uses 8; the
	// Capstan ablation doubles it to 16 because in-order dequeue cannot
	// free granted slots early (paper §III-B).
	IssueDepth int
	// InOrder selects Capstan's discipline: only the oldest vector's
	// requests bid, and response vectors dequeue in arrival order
	// (head-of-line blocking). Default false = Aurochs reordering.
	InOrder bool
	// ForwardRMW enables the write→read forwarding path that lets
	// back-to-back RMW ops to the same bank issue every cycle. Without
	// it an RMW holds its bank for two cycles.
	ForwardRMW bool
	// AccessLatency is the SRAM pipeline latency in cycles (default 2).
	AccessLatency int
}

func (c *Config) fill() {
	if c.Lanes == 0 {
		c.Lanes = record.NumLanes
	}
	if c.IssueDepth == 0 {
		if c.InOrder {
			c.IssueDepth = 16
		} else {
			c.IssueDepth = 8
		}
	}
	if c.AccessLatency == 0 {
		c.AccessLatency = 2
	}
	if c.Name == "" {
		c.Name = "spad"
	}
}

// DefaultConfig returns the Aurochs-mode configuration from the paper:
// 16 lanes, issue depth 8 (up to 128 requests considered per cycle),
// reordering allocation, RMW forwarding.
func DefaultConfig(name string) Config {
	c := Config{Name: name, ForwardRMW: true}
	c.fill()
	return c
}

type qent struct {
	rec     record.Rec
	addr    uint32
	bank    int
	seq     int64 // arrival vector sequence (in-order mode)
	granted bool  // in-order mode: slot stays occupied until vector dequeue
}

type bankOp struct {
	rec  record.Rec
	resp []uint32
	done int64
	seq  int64
	lane int
}

// Tile is one stream pipeline of a scratchpad: issue queues, allocator,
// banks, and the response compactor that re-vectorizes completed threads.
// It is a sim.Component wired between an input and an output link.
type Tile struct {
	cfg   Config
	mem   *Mem
	spec  Spec
	in    *sim.Link
	out   *sim.Link
	stats *sim.Stats

	queues   [][]qent
	bankBusy []int64 // bank free again at this cycle
	// pending is FIFO by completion time: every grant's done stamp is
	// cycle + AccessLatency + busy - 1 with busy fixed per tile config, so
	// later grants never complete earlier and retire can stop at the first
	// unfinished op instead of scanning (and compacting) the whole window.
	pending  ring.Queue[bankOp]
	ready    ring.Queue[record.Rec] // completed threads awaiting output vectorization
	rob      map[int64][]record.Rec
	robFree  [][]record.Rec   // recycled ROB slot slices (in-order mode)
	robLive  map[int64]uint32 // lanes with a retired record per seq
	robCount map[int64]int    // outstanding requests per seq (in-order mode)
	robHead  int64
	seq      int64
	eosIn    bool
	eosSent  bool

	// Allocator acceleration state. The arbitration itself is unchanged —
	// these only let the scan skip banks and lanes that provably hold no
	// bidding request, so the single-cycle matching stays bit-identical
	// while the host cost drops from banks×lanes×depth struct copies to a
	// handful of counter probes.
	banks    int     // t.mem.Banks(), hoisted
	width    int     // t.spec.width(), hoisted
	nq       int     // total occupied issue-queue slots (incl. granted)
	bids     int     // total un-granted slots (active bidders)
	bankBids []int32 // un-granted slots per bank
	laneBids []int32 // un-granted slots per lane×bank, lane*banks+bank
	// Bit-mirrors of the counters above (bit b of bankBidMask set iff
	// bankBids[b] > 0; bit l of laneMask[bank] set iff laneBids[l*banks+bank]
	// > 0). The allocator rotates these by the cycle and walks set bits with
	// TrailingZeros, which visits exactly the banks/lanes the counter scan
	// would in the same priority order — only the empty probes disappear.
	// NewTile refuses more than 64 banks or lanes, so both always fit.
	bankBidMask uint64
	laneMask    []uint64
	respFree    [][]uint32

	cGrants, cConf, cReq *sim.Counter
	cDropped, cRespStall *sim.Counter
	cInStall, cOutStall  *sim.Counter
}

// NewTile builds a scratchpad stream pipeline over mem, reading thread
// vectors from in and writing updated thread vectors to out. The allocator
// matches over 64-bit bid masks, so it panics above 64 banks or lanes.
func NewTile(cfg Config, mem *Mem, spec Spec, in, out *sim.Link, stats *sim.Stats) *Tile {
	cfg.fill()
	if mem.Banks() > 64 || cfg.Lanes > 64 {
		panic(fmt.Sprintf("spad: %d banks and %d lanes; the allocator handles at most 64 of each", mem.Banks(), cfg.Lanes))
	}
	if spec.Addr == nil {
		panic("spad: spec.Addr is required")
	}
	if spec.Op == OpModify {
		if spec.Modify == nil && spec.Combiner != nil {
			// Derive the modify function from the declared combiner so the
			// classified path needs no redundant closure.
			comb, data := spec.Combiner, spec.Data
			spec.Modify = func(cur uint32, r *record.Rec) uint32 {
				var arg uint32
				if data != nil {
					arg = data(r, 0)
				}
				return comb.Fn(cur, arg)
			}
		}
		if spec.Modify == nil {
			panic("spad: spec.Modify or spec.Combiner required for modify op")
		}
	} else if (spec.Op == OpWrite || spec.Op.IsRMW()) && spec.Data == nil {
		panic(fmt.Sprintf("spad: spec.Data required for %s", spec.Op))
	}
	t := &Tile{
		cfg:        cfg,
		mem:        mem,
		spec:       spec,
		in:         in,
		out:        out,
		stats:      stats,
		queues:     make([][]qent, cfg.Lanes),
		bankBusy:   make([]int64, mem.Banks()),
		rob:        make(map[int64][]record.Rec),
		robLive:    make(map[int64]uint32),
		robCount:   make(map[int64]int),
		banks:      mem.Banks(),
		bankBids:   make([]int32, mem.Banks()),
		laneBids:   make([]int32, cfg.Lanes*mem.Banks()),
		laneMask:   make([]uint64, mem.Banks()),
		cGrants:    stats.Counter(cfg.Name + ".grants"),
		cConf:      stats.Counter(cfg.Name + ".conflicts"),
		cReq:       stats.Counter(cfg.Name + ".requests"),
		cDropped:   stats.Counter(cfg.Name + ".dropped"),
		cRespStall: stats.Counter(cfg.Name + ".resp_stall"),
		cInStall:   stats.Counter(cfg.Name + ".in_stall"),
		cOutStall:  stats.Counter(cfg.Name + ".out_stall"),
	}
	t.width = t.spec.width()
	// Presize the issue queues to their bound so a new graph's tile does
	// not grow each from empty: accept admits a vector only while its
	// lanes' queues are below IssueDepth.
	perLane := t.cfg.IssueDepth + (record.NumLanes+t.cfg.Lanes-1)/t.cfg.Lanes
	slots := make([]qent, t.cfg.Lanes*perLane)
	for l := range t.queues {
		t.queues[l] = slots[l*perLane : l*perLane : (l+1)*perLane]
	}
	return t
}

// Name implements sim.Component.
func (t *Tile) Name() string { return t.cfg.Name }

// InputLinks implements sim.InputPorts.
func (t *Tile) InputLinks() []*sim.Link { return []*sim.Link{t.in} }

// OutputLinks implements sim.OutputPorts.
func (t *Tile) OutputLinks() []*sim.Link { return []*sim.Link{t.out} }

// InputSchemas implements sim.TypedPorts from the Spec's In declaration.
func (t *Tile) InputSchemas() []*record.Schema {
	if t.spec.In == nil {
		return nil
	}
	return []*record.Schema{t.spec.In}
}

// OutputSchemas implements sim.TypedPorts from the Spec's Out declaration.
func (t *Tile) OutputSchemas() []*record.Schema {
	if t.spec.Out == nil {
		return nil
	}
	return []*record.Schema{t.spec.Out}
}

// Reordering implements sim.ReorderSemantics: the stream's class comes from
// its Spec, and the pipeline reorders thread responses exactly when it is
// not configured for Capstan's in-order dequeue.
func (t *Tile) Reordering() sim.ReorderDecl { return t.spec.Decl(!t.cfg.InOrder) }

// ResidentBound bounds the thread records simultaneously buffered inside
// the tile, for the token-flow prover's occupancy accounting: the issue
// queues (Lanes × IssueDepth slots) plus the response-side window, which
// Tick's admission gate holds under 4×Lanes ready-or-pending responses.
func (t *Tile) ResidentBound() int {
	return t.cfg.Lanes*t.cfg.IssueDepth + 4*t.cfg.Lanes
}

// LossyDecl exposes the stream's declared drop behaviour (Spec.Lossy and
// its waiver) to the token-flow prover.
func (t *Tile) LossyDecl() (lossy bool, waiver string) {
	return t.spec.Lossy, t.spec.LossyWaiver
}

// Done implements sim.Component.
func (t *Tile) Done() bool { return t.eosSent }

// Idle implements sim.Idler: the pipeline is quiescent when nothing is
// queued, pending, or ready, no input is poppable, and EOS (if due) has
// been sent.
func (t *Tile) Idle(int64) bool {
	if t.pending.Len() > 0 || t.ready.Len() > 0 || t.nq > 0 {
		return false
	}
	if t.cfg.InOrder && t.robHead < t.seq {
		return false
	}
	if !t.eosIn && !t.in.Empty() {
		return false
	}
	if t.eosIn && !t.eosSent {
		return false
	}
	return true
}

// WorstCaseInternalLatency implements sim.LatencyBound: a full set of
// issue queues drains through the banks in at most depth×lanes grants,
// each completing AccessLatency+width cycles later.
func (t *Tile) WorstCaseInternalLatency() int64 {
	return int64(t.cfg.IssueDepth*t.cfg.Lanes) + int64(t.cfg.AccessLatency) + int64(t.spec.width()) + 64
}

// Tick implements sim.Component: retire, allocate, emit, accept.
func (t *Tile) Tick(cycle int64) {
	t.retire(cycle)
	t.allocate(cycle)
	t.emit(cycle)
	t.accept(cycle)
	t.finishEOS(cycle)
}

// retire completes bank operations whose latency elapsed and applies the
// response to the thread record. pending is FIFO by done (see field doc),
// so the loop stops at the first unfinished op.
func (t *Tile) retire(cycle int64) {
	for t.pending.Len() > 0 {
		op := t.pending.Front()
		if op.done > cycle {
			return
		}
		keep := true
		if t.spec.Apply != nil {
			keep = t.spec.Apply(&op.rec, op.resp)
		}
		if op.resp != nil {
			// Apply may not retain resp (see Spec.Apply); recycle the buffer.
			t.respFree = append(t.respFree, op.resp) // lint:hotalloc-ok freelist bounded by pipeline population
			op.resp = nil
		}
		if !keep {
			t.cDropped.Add(1)
			t.retireSeq(op.seq)
			t.pending.Drop()
			continue
		}
		if t.cfg.InOrder {
			// Reassemble the vector in lane order: Capstan preserves
			// stream order exactly.
			slots := t.rob[op.seq]
			if slots == nil {
				if n := len(t.robFree); n > 0 {
					// Reuse a slice released by emitInOrder: the ROB
					// population is bounded, so the freelist covers
					// steady state without fresh allocation.
					slots = t.robFree[n-1]
					t.robFree = t.robFree[:n-1]
					clear(slots)
				} else {
					slots = make([]record.Rec, t.cfg.Lanes) // lint:hotalloc-ok freelist warmup, bounded by the in-flight window
				}
			}
			slots[op.lane] = op.rec
			// The reorder window is bounded by issue-queue backpressure, so
			// the maps' bucket arrays stop growing once it is covered.
			t.rob[op.seq] = slots                   // lint:hotalloc-ok bounded reorder window, buckets reused after delete
			t.robLive[op.seq] |= 1 << uint(op.lane) // lint:hotalloc-ok bounded reorder window, buckets reused after delete
			t.retireSeq(op.seq)
		} else {
			// Ring capacity is bounded by the response-side backpressure in
			// allocate, so the backing array stops growing at steady state.
			*t.ready.PushRefDirty() = op.rec // lint:hotalloc-ok bounded by backpressure, ring reuses its array
		}
		t.pending.Drop()
	}
}

func (t *Tile) retireSeq(seq int64) {
	if !t.cfg.InOrder {
		return
	}
	t.robCount[seq]--
}

// allocate is the single-cycle lane↔bank matching (paper fig. 2b): every
// valid issue-queue slot bids for its bank; each bank grants at most one
// request and each lane issues at most one. Granted slots are invalidated
// immediately in Aurochs mode, freeing the slot for a new thread.
func (t *Tile) allocate(cycle int64) {
	if t.ready.Len()+t.pending.Len() >= 4*t.cfg.Lanes {
		// Response-side backpressure: stop granting when the output
		// compactor is saturated so the pipeline stays bounded.
		t.cRespStall.Add(1)
		return
	}
	// Round-robin priority rotates with the clock, not with the tile's own
	// tick count, so grant order is the same whether or not the tile slept
	// through idle cycles.
	rr := int(cycle)
	granted := 0
	if t.bids > 0 {
		// Greedy maximal matching (paper fig. 2b) over the bid masks: visit
		// banks with live bids in rotated order (b+rr)&(banks-1), and for
		// each, the first non-issued lane with a live bid for it in rotated
		// order (l+rr)%Lanes. Rotating the mask by rr and taking set bits in
		// ascending position reproduces those sequences exactly, so the
		// grant order — and therefore all simulated state — is unchanged.
		var issued uint64
		br := rr & (t.banks - 1)
		bm := (t.bankBidMask>>uint(br) | t.bankBidMask<<uint(t.banks-br)) & (uint64(1)<<uint(t.banks) - 1)
		lmod := t.cfg.Lanes
		lr := rr % lmod
		lfull := uint64(1)<<uint(lmod) - 1
		for bm != 0 {
			p := bits.TrailingZeros64(bm)
			bm &= bm - 1
			bank := (p + br) & (t.banks - 1)
			if t.bankBusy[bank] > cycle {
				continue
			}
			lm := t.laneMask[bank] &^ issued
			if lm == 0 {
				continue
			}
			lrot := (lm>>uint(lr) | lm<<uint(lmod-lr)) & lfull
			lane := bits.TrailingZeros64(lrot) + lr
			if lane >= lmod {
				lane -= lmod
			}
			// FIFO scan order gives priority to older requests, matching
			// Capstan's age-based allocation rounds. A matching un-granted
			// slot must exist: laneBids[lane][bank] > 0.
			q := t.queues[lane]
			for si := range q {
				e := &q[si]
				if e.granted || e.bank != bank {
					continue
				}
				t.grant(cycle, lane, si)
				issued |= uint64(1) << uint(lane)
				granted++
				break
			}
		}
	}
	if granted > 0 {
		t.cGrants.Add(int64(granted))
	}
	// Conflicts: requests that wanted service this cycle but were not
	// granted (a direct proxy for bank-conflict serialization).
	if t.nq > granted {
		t.cConf.Add(int64(t.nq - granted))
	}
}

// grant executes queue slot si of lane and schedules its retirement.
// Memory state mutates at grant time, which is what serializes same-address
// atomics (same address ⇒ same bank ⇒ at most one grant per cycle).
//
// In Aurochs mode the slot is invalidated immediately — the property that
// halves the required queue depth. In Capstan (in-order) mode the slot
// stays occupied until its whole vector dequeues.
func (t *Tile) grant(cycle int64, lane, si int) {
	e := &t.queues[lane][si]
	bank := e.bank
	t.bids--
	if t.bankBids[bank]--; t.bankBids[bank] == 0 {
		t.bankBidMask &^= uint64(1) << uint(bank)
	}
	if t.laneBids[lane*t.banks+bank]--; t.laneBids[lane*t.banks+bank] == 0 {
		t.laneMask[bank] &^= uint64(1) << uint(lane)
	}

	w := t.width
	var resp []uint32
	switch t.spec.Op {
	case OpRead:
		resp = t.respBuf(w)
		for i := 0; i < w; i++ {
			resp[i] = t.mem.Read(e.addr + uint32(i))
		}
	case OpWrite:
		for i := 0; i < w; i++ {
			t.mem.Write(e.addr+uint32(i), t.spec.Data(&e.rec, i))
		}
	case OpCAS:
		cur := t.mem.Read(e.addr)
		if cur == t.spec.Data(&e.rec, 0) {
			t.mem.Write(e.addr, t.spec.Data(&e.rec, 1))
		}
		resp = t.respBuf(1)
		resp[0] = cur
	case OpFAA:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, cur+t.spec.Data(&e.rec, 0))
		resp = t.respBuf(1)
		resp[0] = cur
	case OpXCHG:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, t.spec.Data(&e.rec, 0))
		resp = t.respBuf(1)
		resp[0] = cur
	case OpModify:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, t.spec.Modify(cur, &e.rec))
		resp = t.respBuf(1)
		resp[0] = cur
	}

	// Bank occupancy: a width-w access streams w fields through the bank;
	// an RMW occupies its bank for two stages unless the forwarding path
	// lets the next RMW issue back-to-back.
	busy := int64(w)
	if t.spec.Op.IsRMW() && !t.cfg.ForwardRMW {
		busy = 2
	}
	t.bankBusy[bank] = cycle + busy
	// Grows to the bounded in-flight population once; the ring reuses its
	// backing array at steady state.
	op := t.pending.PushRefDirty() // lint:hotalloc-ok bounded in-flight ops, ring reuses its array
	op.rec = e.rec
	op.resp = resp
	op.done = cycle + int64(t.cfg.AccessLatency) + busy - 1
	op.seq = e.seq
	op.lane = lane

	if t.cfg.InOrder {
		e.granted = true
	} else {
		t.queues[lane] = append(t.queues[lane][:si], t.queues[lane][si+1:]...)
		t.nq--
	}
}

// respBuf hands out a response buffer from the retire-side freelist,
// allocating only until the pipeline's steady-state population is covered.
func (t *Tile) respBuf(w int) []uint32 {
	if n := len(t.respFree); n > 0 {
		b := t.respFree[n-1]
		t.respFree = t.respFree[:n-1]
		if cap(b) >= w {
			return b[:w]
		}
	}
	return make([]uint32, w) // lint:hotalloc-ok freelist warmup, bounded by steady-state population
}

// emit vectorizes completed threads and pushes at most one dense vector per
// cycle downstream.
func (t *Tile) emit(cycle int64) {
	if !t.out.CanPush() {
		t.cOutStall.Add(1)
		return
	}
	if t.cfg.InOrder {
		t.emitInOrder(cycle)
		return
	}
	n := t.ready.Len()
	if n == 0 {
		return
	}
	if n > record.NumLanes {
		n = record.NumLanes
	}
	v := t.out.StageVec(cycle)
	for i := 0; i < n; i++ {
		*v.PushRef() = *t.ready.Front()
		t.ready.Drop()
	}
}

// emitInOrder releases the oldest vector only once all of its requests have
// retired — Capstan's head-of-line-blocking dequeue.
func (t *Tile) emitInOrder(cycle int64) {
	if t.robHead >= t.seq {
		return
	}
	if t.robCount[t.robHead] != 0 {
		return // straggler request still outstanding
	}
	slots := t.rob[t.robHead]
	live := t.robLive[t.robHead]
	var v record.Vector
	for lane := 0; lane < t.cfg.Lanes; lane++ {
		if live&(1<<uint(lane)) != 0 {
			v.Push(slots[lane])
		}
	}
	if slots != nil {
		t.robFree = append(t.robFree, slots) // lint:hotalloc-ok freelist growth bounded by the in-flight window
	}
	delete(t.rob, t.robHead)
	delete(t.robCount, t.robHead)
	delete(t.robLive, t.robHead)
	// Vector dequeue frees this vector's issue-queue slots — the point
	// where Capstan reclaims space that Aurochs reclaimed at grant time.
	for lane := range t.queues {
		q := t.queues[lane]
		n := 0
		for i := range q {
			if q[i].seq != t.robHead {
				if n != i {
					q[n] = q[i]
				}
				n++
			} else {
				t.nq-- // dequeued slots were all granted; bid counts unaffected
			}
		}
		t.queues[lane] = q[:n]
	}
	t.robHead++
	if v.Count() > 0 {
		t.out.Push(cycle, sim.Flit{Vec: v})
	}
}

// accept pops an input vector when every valid lane has queue space.
func (t *Tile) accept(cycle int64) {
	if t.eosIn || t.in.Empty() {
		return
	}
	f := t.in.Peek()
	if f.EOS {
		t.in.Drop()
		t.eosIn = true
		return
	}
	for i := 0; i < record.NumLanes; i++ {
		if f.Vec.Valid(i) && len(t.queues[i%t.cfg.Lanes]) >= t.cfg.IssueDepth {
			t.cInStall.Add(1)
			return
		}
	}
	t.in.Drop()
	seq := t.seq
	t.seq++
	count := 0
	for i := 0; i < record.NumLanes; i++ {
		if !f.Vec.Valid(i) {
			continue
		}
		addr := t.spec.Addr(&f.Vec.Lane[i])
		if int(addr)+t.width > t.mem.Words() {
			panic(fmt.Sprintf("%s: address %d+%d out of range (%d words)", t.cfg.Name, addr, t.width, t.mem.Words()))
		}
		lane := i % t.cfg.Lanes
		bank := t.mem.Bank(addr)
		q := append(t.queues[lane], qent{}) // lint:hotalloc-ok bounded by IssueDepth backpressure in the loop above
		e := &q[len(q)-1]
		e.rec = f.Vec.Lane[i]
		e.addr = addr
		e.bank = bank
		e.seq = seq
		t.queues[lane] = q
		t.nq++
		t.bids++
		if t.bankBids[bank]++; t.bankBids[bank] == 1 {
			t.bankBidMask |= uint64(1) << uint(bank)
		}
		if t.laneBids[lane*t.banks+bank]++; t.laneBids[lane*t.banks+bank] == 1 {
			t.laneMask[bank] |= uint64(1) << uint(lane)
		}
		count++
	}
	if t.cfg.InOrder {
		t.robCount[seq] = count // lint:hotalloc-ok bounded reorder window, buckets reused after delete
	}
	t.cReq.Add(int64(count))
}

// finishEOS forwards end-of-stream once the pipeline has fully drained.
func (t *Tile) finishEOS(cycle int64) {
	if t.eosSent || !t.eosIn {
		return
	}
	if t.nq > 0 || t.pending.Len() > 0 || t.ready.Len() > 0 {
		return
	}
	if t.cfg.InOrder && t.robHead < t.seq {
		return
	}
	if !t.out.CanPush() {
		return
	}
	t.out.Push(cycle, sim.Flit{EOS: true})
	t.eosSent = true
}
