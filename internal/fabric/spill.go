package fabric

import (
	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// SpillQueue is an elastic thread queue: on-chip up to OnChipRecs records,
// spilling to a DRAM buffer beyond that (paper §IV-C: "To account for
// limited queue size in scratchpads, we spill search threads to a queue in
// DRAM"). Placing one on the recirculating path of a forking tree walk
// makes the loop deadlock-free — fork fan-out can exceed on-chip buffering
// without stalling the cycle.
//
// Functionally the records stay in host memory; the timing cost of a spill
// (a DRAM write on enqueue past the threshold, a DRAM read before those
// records become poppable again) is charged through real requests against
// the shared HBM, so spilling competes for bandwidth like everything else.
type SpillQueue struct {
	name     string
	h        *dram.HBM
	base     uint32
	recWords int
	onchip   int
	in       *sim.Link
	out      *sim.Link
	stat     *sim.Stats

	front   ring.Queue[record.Rec] // on-chip, ready to emit
	spilled ring.Queue[record.Rec] // resident in DRAM, oldest first
	refill  int                    // records at the head of spilled being fetched back
	wptr    uint32
	rptr    uint32
	eosIn   bool
	eos     bool

	scratch []record.Rec // reused staging for one input vector's records
	rdata   []uint32     // the refill read's buffer, filled by the HBM (one refill in flight)

	// refillDone moves the refilled records from the head of spilled to
	// the on-chip segment. One closure serves every refill because only
	// one is ever in flight (s.refill gates them).
	refillDone func([]uint32)

	refillCnt, spillCnt *sim.Counter
}

// NewSpillQueue builds a spill queue. base is the DRAM word address of the
// spill ring; onChipRecs the scratchpad-backed capacity.
func NewSpillQueue(g *Graph, name string, base uint32, recWords, onChipRecs int, in, out *sim.Link) *SpillQueue {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	s := &SpillQueue{
		name: name, h: g.HBM, base: base, recWords: recWords,
		onchip: onChipRecs, in: in, out: out, stat: g.Stats(),
		rdata: make([]uint32, refillRecs*recWords),
	}
	s.refillDone = func([]uint32) {
		for ; s.refill > 0; s.refill-- {
			*s.front.PushRefDirty() = *s.spilled.Front()
			s.spilled.Drop()
		}
	}
	s.refillCnt = s.stat.Counter(name + ".refills")
	s.spillCnt = s.stat.Counter(name + ".spilled")
	g.Add(s)
	return s
}

// Name implements sim.Component.
func (s *SpillQueue) Name() string { return s.name }

// InputLinks implements sim.InputPorts.
func (s *SpillQueue) InputLinks() []*sim.Link { return []*sim.Link{s.in} }

// OutputLinks implements sim.OutputPorts.
func (s *SpillQueue) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component: a spill queue sits on cyclic paths and
// never sees EOS; it is done when empty.
func (s *SpillQueue) Done() bool {
	return s.front.Len() == 0 && s.spilled.Len() == 0 && s.refill == 0
}

// Idle implements sim.Idler: nothing on chip, nothing spilled that could
// start a refill, and no poppable input.
func (s *SpillQueue) Idle(int64) bool {
	if s.front.Len() > 0 {
		return false
	}
	if s.spilled.Len() > 0 && s.refill == 0 {
		return false
	}
	if !s.eosIn && !s.in.Empty() {
		return false
	}
	return true
}

// Tick implements sim.Component.
func (s *SpillQueue) Tick(cycle int64) {
	// Emit one vector from the on-chip segment.
	if s.front.Len() > 0 && s.out.CanPush() {
		n := s.front.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := s.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			v.Push(s.front.Pop())
		}
	}
	// Refill from DRAM when the on-chip segment runs low.
	if s.front.Len() < s.onchip/2 && s.spilled.Len() > 0 && s.refill == 0 {
		n := s.spilled.Len()
		if n > refillRecs {
			n = refillRecs
		}
		// The records stay at the head of spilled until refillDone moves
		// them; nothing else touches that head while s.refill is set.
		words := n * s.recWords
		ok := s.h.SubmitAt(cycle, dram.Request{
			Addr: s.base + s.rptr%spillRingWords, Words: words,
			Data: s.rdata, Done: s.refillDone,
		})
		if ok {
			s.refill = n
			s.rptr += uint32(words)
			s.refillCnt.Add(1)
		}
	}
	// Accept input: into the on-chip segment if it fits and nothing is
	// spilled ahead of it (FIFO), otherwise spill to DRAM.
	if !s.eosIn && !s.in.Empty() {
		f := s.in.Pop()
		if f.EOS {
			s.eosIn = true
			return
		}
		recs := f.Vec.AppendRecords(s.scratch[:0])
		s.scratch = recs[:0]
		if s.spilled.Len() == 0 && s.refill == 0 && s.front.Len()+len(recs) <= s.onchip {
			for _, r := range recs {
				*s.front.PushRef() = r
			}
			return
		}
		// The records stay on the host, so the spill is a timing-only
		// write of their slots.
		words := len(recs) * s.recWords
		if s.h.SubmitAt(cycle, dram.Request{Addr: s.base + s.wptr%spillRingWords, Words: words, Write: true}) {
			s.wptr += uint32(words)
		}
		// Even if the write was backpressured, keep the records: the
		// traffic accounting is best-effort under saturation.
		for _, r := range recs {
			*s.spilled.PushRefDirty() = r
		}
		s.spillCnt.Add(int64(len(recs)))
	}
}

// spillRingWords bounds the DRAM footprint of a spill ring; addresses wrap.
const spillRingWords = 1 << 22

// refillRecs is the most records one refill fetches back from DRAM.
const refillRecs = 64
