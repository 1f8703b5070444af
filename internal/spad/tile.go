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

// qent is one issue-queue slot. Its bank lives in the lane's byte array
// (Tile.qbank), parallel to the queue.
type qent struct {
	rec  record.Rec
	addr uint32
	seq  int64 // arrival vector sequence (in-order mode)
}

// noBank marks an in-order slot that was granted but stays occupied until
// its vector dequeues: it bids for no bank. Banks number at most 64.
const noBank = 0xff

// bankOp is one granted bank access awaiting its latency. It holds no
// pointer: its response words sit in Tile.pendResp at its ring slot.
type bankOp struct {
	rec  record.Rec
	lane int32
	done int64
	seq  int64
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
	qbank    [][]byte // per lane, parallel to queues: each slot's bank, or noBank
	bankBusy []int64  // bank free again at this cycle
	// pend is a power-of-two ring of the granted bank ops, pendN of them
	// from pendHead, FIFO by completion time: every grant's done stamp is
	// cycle + AccessLatency + busy - 1 with busy fixed per tile config, so
	// later grants never complete earlier and retire can stop at the first
	// unfinished op instead of scanning (and compacting) the whole window.
	// pendResp holds respW response words per ring slot.
	pend     []bankOp
	pendResp []uint32
	pendHead int
	pendN    int
	respW    int                    // response words per op: width, 0 for OpWrite
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
	// bidding request, so the single-cycle matching stays bit-identical.
	// Bit l of laneMask[bank] is set iff qbank[l] holds bank (an
	// un-granted slot of lane l bids for it); bit b of bankBidMask iff
	// laneMask[b] != 0. The allocator rotates both by the cycle and walks
	// set bits with TrailingZeros, visiting the banks and lanes a full
	// banks×lanes scan would in the same priority order, and finds a
	// lane's oldest slot for a bank with one byte scan of qbank. NewTile
	// refuses more than 64 banks or lanes, so the masks always fit.
	banks       int // t.mem.Banks(), hoisted
	width       int // t.spec.width(), hoisted
	nq          int // total occupied issue-queue slots (incl. granted)
	bankBidMask uint64
	laneMask    []uint64
	// laneOf maps an input vector lane to its issue queue (i % Lanes);
	// laneBits[l] is the set of input lanes feeding queue l, and fullMask
	// the union of laneBits over the queues holding IssueDepth or more
	// slots, so accept tests its stall with one AND.
	laneOf   [record.NumLanes]uint8
	laneBits []uint16
	fullMask uint16

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
		qbank:      make([][]byte, cfg.Lanes),
		bankBusy:   make([]int64, mem.Banks()),
		rob:        make(map[int64][]record.Rec),
		robLive:    make(map[int64]uint32),
		robCount:   make(map[int64]int),
		banks:      mem.Banks(),
		laneMask:   make([]uint64, mem.Banks()),
		laneBits:   make([]uint16, cfg.Lanes),
		cGrants:    stats.Counter(cfg.Name + ".grants"),
		cConf:      stats.Counter(cfg.Name + ".conflicts"),
		cReq:       stats.Counter(cfg.Name + ".requests"),
		cDropped:   stats.Counter(cfg.Name + ".dropped"),
		cRespStall: stats.Counter(cfg.Name + ".resp_stall"),
		cInStall:   stats.Counter(cfg.Name + ".in_stall"),
		cOutStall:  stats.Counter(cfg.Name + ".out_stall"),
	}
	t.width = t.spec.width()
	if t.spec.Op != OpWrite {
		t.respW = t.width
	}
	for i := range t.laneOf {
		l := i % t.cfg.Lanes
		t.laneOf[i] = uint8(l)
		t.laneBits[l] |= 1 << uint(i)
	}
	// Size the issue queues to their bound once, so accept never grows
	// them: accept admits a vector only while its lanes' queues are below
	// IssueDepth.
	perLane := t.cfg.IssueDepth + (record.NumLanes+t.cfg.Lanes-1)/t.cfg.Lanes
	slots := make([]qent, t.cfg.Lanes*perLane)
	qbank := make([]byte, t.cfg.Lanes*perLane)
	for l := range t.queues {
		t.queues[l] = slots[l*perLane : l*perLane : (l+1)*perLane]
		t.qbank[l] = qbank[l*perLane : l*perLane : (l+1)*perLane]
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
	if t.pendN > 0 || t.ready.Len() > 0 || t.nq > 0 {
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
// response to the thread record. pend is FIFO by done (see field doc), so
// the loop stops at the first unfinished op.
func (t *Tile) retire(cycle int64) {
	for t.pendN > 0 {
		slot := t.pendHead
		op := &t.pend[slot]
		if op.done > cycle {
			return
		}
		t.pendHead = (slot + 1) & (len(t.pend) - 1)
		t.pendN--
		keep := true
		if t.spec.Apply != nil {
			// Apply may not retain resp (see Spec.Apply): the slot's words
			// are reused by a later grant. The capacity is clipped so an
			// append cannot reach the next slot's words.
			var resp []uint32
			if w := t.respW; w > 0 {
				resp = t.pendResp[slot*w : (slot+1)*w : (slot+1)*w]
			}
			keep = t.spec.Apply(&op.rec, resp)
		}
		if !keep {
			t.cDropped.Add(1)
			t.retireSeq(op.seq)
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
	if t.ready.Len()+t.pendN >= 4*t.cfg.Lanes {
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
	if t.bankBidMask != 0 {
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
			// The first slot in queue order is the oldest, matching
			// Capstan's age-based allocation rounds. A matching un-granted
			// slot exists: the lane's bit is set in laneMask[bank].
			t.grant(cycle, lane, indexBank(t.qbank[lane], byte(bank)))
			issued |= uint64(1) << uint(lane)
			granted++
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
	qb := t.qbank[lane]
	bank := int(qb[si])
	slot := t.pushPending()
	w := t.width
	resp := t.pendResp[slot*t.respW : (slot+1)*t.respW]
	switch t.spec.Op {
	case OpRead:
		for i := range resp {
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
		resp[0] = cur
	case OpFAA:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, cur+t.spec.Data(&e.rec, 0))
		resp[0] = cur
	case OpXCHG:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, t.spec.Data(&e.rec, 0))
		resp[0] = cur
	case OpModify:
		cur := t.mem.Read(e.addr)
		t.mem.Write(e.addr, t.spec.Modify(cur, &e.rec))
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
	op := &t.pend[slot]
	op.rec = e.rec
	op.lane = int32(lane)
	op.done = cycle + int64(t.cfg.AccessLatency) + busy - 1
	op.seq = e.seq

	// Only slots after si can still bid for bank: si was the lane's oldest.
	var rest []byte
	if t.cfg.InOrder {
		qb[si] = noBank
		rest = qb[si+1:]
	} else {
		q := t.queues[lane]
		n := len(q) - 1
		copy(q[si:], q[si+1:])
		for j := si; j < n; j++ {
			qb[j] = qb[j+1]
		}
		t.queues[lane], t.qbank[lane] = q[:n], qb[:n]
		t.nq--
		if n < t.cfg.IssueDepth {
			t.fullMask &^= t.laneBits[lane]
		}
		rest = qb[si:n]
	}
	if indexBank(rest, byte(bank)) < 0 {
		if t.laneMask[bank] &^= uint64(1) << uint(lane); t.laneMask[bank] == 0 {
			t.bankBidMask &^= uint64(1) << uint(bank)
		}
	}
}

// indexBank returns the position of the first slot in qb that bids for
// bank, or -1. A lane holds at most IssueDepth plus one vector's share of
// slots, so a plain loop suffices.
func indexBank(qb []byte, bank byte) int {
	for i, b := range qb {
		if b == bank {
			return i
		}
	}
	return -1
}

// pushPending claims the ring slot after the last pending op, doubling the
// ring and its response words when full. At most 4×Lanes ops are pending
// or ready when allocate starts granting, and one cycle adds at most one
// per lane and per bank, so the ring stops growing at the first power of
// two at or above 4×Lanes + min(Lanes, banks); a tile that never fills its
// window never gets there.
func (t *Tile) pushPending() int {
	if t.pendN == len(t.pend) {
		t.growPending()
	}
	slot := (t.pendHead + t.pendN) & (len(t.pend) - 1)
	t.pendN++
	return slot
}

// growPending doubles the pending ring (from 8) and its response arena,
// unwrapping the queued ops so order is kept.
//
// lint:hotalloc-ok — amortized doubling up to the response-side bound
// (see pushPending); a tile at its steady-state population never grows.
func (t *Tile) growPending() {
	size := 2 * len(t.pend)
	if size == 0 {
		size = 8
	}
	w := t.respW
	pend := make([]bankOp, size)
	resp := make([]uint32, size*w)
	for i := 0; i < t.pendN; i++ {
		s := (t.pendHead + i) & (len(t.pend) - 1)
		pend[i] = t.pend[s]
		copy(resp[i*w:(i+1)*w], t.pendResp[s*w:(s+1)*w])
	}
	t.pend, t.pendResp, t.pendHead = pend, resp, 0
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
	if t.ready.Len() == 0 {
		return
	}
	v := t.out.StageVec(cycle)
	v.Mask = uint16(1<<uint(t.ready.PopInto(v.Lane[:])) - 1)
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
		q, qb := t.queues[lane], t.qbank[lane]
		n := 0
		for i := range q {
			if q[i].seq != t.robHead {
				if n != i {
					q[n] = q[i]
					qb[n] = qb[i]
				}
				n++
			} else {
				t.nq-- // dequeued slots were all granted; bid masks unaffected
			}
		}
		t.queues[lane], t.qbank[lane] = q[:n], qb[:n]
		if n < t.cfg.IssueDepth {
			t.fullMask &^= t.laneBits[lane]
		}
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
	if f.Vec.Mask&t.fullMask != 0 {
		t.cInStall.Add(1)
		return
	}
	t.in.Drop()
	seq := t.seq
	t.seq++
	count := 0
	for m := f.Vec.Mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		addr := t.spec.Addr(&f.Vec.Lane[i])
		if int(addr)+t.width > t.mem.Words() {
			panic(fmt.Sprintf("%s: address %d+%d out of range (%d words)", t.cfg.Name, addr, t.width, t.mem.Words()))
		}
		lane := int(t.laneOf[i])
		bank := t.mem.Bank(addr)
		// Every queue of a valid lane is below IssueDepth, so it has room
		// for its share of the vector within the capacity NewTile gave it.
		q, qb := t.queues[lane], t.qbank[lane]
		n := len(q)
		q, qb = q[:n+1], qb[:n+1]
		e := &q[n]
		e.rec = f.Vec.Lane[i]
		e.addr = addr
		e.seq = seq
		qb[n] = byte(bank)
		t.queues[lane], t.qbank[lane] = q, qb
		if n+1 >= t.cfg.IssueDepth {
			t.fullMask |= t.laneBits[lane]
		}
		t.laneMask[bank] |= uint64(1) << uint(lane)
		t.bankBidMask |= uint64(1) << uint(bank)
		count++
	}
	t.nq += count
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
	if t.nq > 0 || t.pendN > 0 || t.ready.Len() > 0 {
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
