// Package allocclean is an analysis fixture: a component whose Tick moves
// data only through the audited allocation-free surface — ring.Queue and
// sim.Link ops, fixed-size record values, pointer-receiver reads of a
// flit-sized value, in-place slice filtering — plus one reviewed
// amortization waiver. The hotalloc analyzer must report nothing.
package allocclean

import (
	"fmt"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// beat is a flit-sized value; its read-only predicate takes a pointer
// receiver, so calling it copies nothing.
type beat struct {
	lane [16][13]uint32
	mask uint16
}

func (b *beat) live(i int) bool { return b.mask&(1<<uint(i)) != 0 }

// Mover is steady-state allocation-free: every per-cycle operation reuses
// storage that already exists.
type Mover struct {
	in   *sim.Link
	out  *sim.Link
	q    ring.Queue[record.Rec]
	hot  []record.Rec
	eos  bool
	id   int
	tick int64
	cur  beat
}

func (m *Mover) Name() string { return "allocclean" }

func (m *Mover) Done() bool { return m.eos }

func (m *Mover) Tick(cycle int64) {
	m.tick = cycle
	// Audited link and queue ops.
	if !m.in.Empty() && m.out.CanPush() {
		f := m.in.Pop()
		if f.EOS {
			m.eos = true
			m.out.PushEOS(cycle)
			return
		}
		v := m.out.StageVec(cycle)
		for i := 0; i < record.NumLanes; i++ {
			if f.Vec.Valid(i) {
				*v.PushRef() = f.Vec.Lane[i]
			}
		}
	}
	// Flit-sized values are read through pointer receivers.
	if m.cur.live(0) {
		m.id++
	}
	// Fixed-size record values.
	r := record.Make(1, 2).Append(uint32(m.id))
	m.q.Push(r)
	if m.q.Len() > 4 {
		m.q.Drop()
	}
	// In-place delete: append over the same base cannot grow.
	if len(m.hot) > 2 {
		m.hot = append(m.hot[:1], m.hot[2:]...)
	}
	// Aborting the simulation may format: panic arguments are cold.
	if m.id < 0 {
		panic(fmt.Sprintf("allocclean: bad id %d", m.id))
	}
	// Reviewed amortization: grows to the high-water mark, then reuses.
	m.hot = append(m.hot, r) // lint:hotalloc-ok warmup growth, accumulator reused at steady state
}
