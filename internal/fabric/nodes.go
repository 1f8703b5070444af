package fabric

import (
	"math/bits"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Source streams the caller's record slice into the fabric, packing up to
// one vector (NumLanes records) per cycle, then signals end-of-stream.
// Records are copied straight from the slice into the link slot, so the
// stream is never materialised as vectors on the host.
type Source struct {
	name   string
	out    *sim.Link
	recs   []record.Rec
	pos    int
	eos    bool
	schema *record.Schema
}

// NewSource builds a source that emits recs densely, in order. The source
// reads recs in place: the caller may not modify the slice until the graph's
// Run returns.
func NewSource(name string, recs []record.Rec, out *sim.Link) *Source {
	return &Source{name: name, out: out, recs: recs}
}

// Name implements sim.Component.
func (s *Source) Name() string { return s.name }

// OutputLinks implements sim.OutputPorts.
func (s *Source) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component.
func (s *Source) Done() bool { return s.eos }

// Idle implements sim.Idler: nothing to do once drained or backpressured.
func (s *Source) Idle(int64) bool { return s.eos || !s.out.CanPush() }

// WakeHint implements sim.WakeHinter: a source only waits on link credit.
func (s *Source) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *Source) Tick(cycle int64) {
	if s.eos || !s.out.CanPush() {
		return
	}
	if s.pos < len(s.recs) {
		// Up to NumLanes records are copied straight into the slot's low
		// lanes, so the vector is dense.
		v := s.out.StageVec(cycle)
		n := copy(v.Lane[:], s.recs[s.pos:])
		v.Mask = uint16(1<<uint(n) - 1)
		s.pos += n
		return
	}
	s.out.PushEOS(cycle)
	s.eos = true
}

// Sink observes a stream's end and counts its records. A sink built by
// NewSink also stores them for Records; one built by NewCountSink stores
// nothing, for kernels whose exit stream is only counted.
type Sink struct {
	name      string
	in        *sim.Link
	recs      []record.Rec
	n         int
	countOnly bool
	eos       bool
	schema    *record.Schema
}

// NewSink builds a sink on the given link that stores every record.
func NewSink(name string, in *sim.Link) *Sink {
	return &Sink{name: name, in: in}
}

// NewCountSink builds a sink on the given link that only counts records:
// Count works as for NewSink, Records returns nil.
func NewCountSink(name string, in *sim.Link) *Sink {
	return &Sink{name: name, in: in, countOnly: true}
}

// Name implements sim.Component.
func (s *Sink) Name() string { return s.name }

// InputLinks implements sim.InputPorts.
func (s *Sink) InputLinks() []*sim.Link { return []*sim.Link{s.in} }

// Done implements sim.Component.
func (s *Sink) Done() bool { return s.eos }

// Idle implements sim.Idler: nothing to do without input.
func (s *Sink) Idle(int64) bool { return s.eos || s.in.Empty() }

// WakeHint implements sim.WakeHinter: a sink only waits on link arrivals.
func (s *Sink) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *Sink) Tick(cycle int64) {
	for !s.in.Empty() {
		f := s.in.Peek()
		s.in.Drop()
		if f.EOS {
			s.eos = true
			return
		}
		s.n += f.Vec.Count()
		if !s.countOnly {
			s.recs = f.Vec.AppendRecords(s.recs)
		}
	}
}

// Records returns everything collected so far; nil for a count-only sink.
func (s *Sink) Records() []record.Rec { return s.recs }

// Count returns the number of records that reached the sink.
func (s *Sink) Count() int { return s.n }

// Map is a compute tile statically configured with a per-record function:
// one vector per cycle through a PipelineDepth-stage datapath. The function
// mutates the record in place — it is handed a pointer into the tile's own
// pipeline buffer, so no per-record copy crosses the call. The function
// may hold state (e.g. the ingress counter that stamps hash-table node
// slots) because one node models one physical pipeline through which
// records pass in a definite order.
type Map struct {
	name string
	in   *sim.Link
	out  *sim.Link
	fn   func(*record.Rec)

	pipe     ring.Queue[timedVec]
	eosIn    bool
	eos      bool
	cyclic   bool
	inSchema *record.Schema
	outSchem *record.Schema
}

type timedVec struct {
	v     record.Vector
	ready int64
}

// NewMap builds a map tile applying fn, in place, to every record.
func NewMap(name string, fn func(*record.Rec), in, out *sim.Link) *Map {
	return &Map{name: name, fn: fn, in: in, out: out}
}

// Cyclic marks the node as living on a recirculating path that never
// carries an end-of-stream token (paper §III-A): the node is done whenever
// it is empty, because the enclosing LoopCtl proves the loop has drained.
// It returns the node for call chaining.
func (m *Map) Cyclic() *Map {
	m.cyclic = true
	return m
}

// Name implements sim.Component.
func (m *Map) Name() string { return m.name }

// InputLinks implements sim.InputPorts.
func (m *Map) InputLinks() []*sim.Link { return []*sim.Link{m.in} }

// OutputLinks implements sim.OutputPorts.
func (m *Map) OutputLinks() []*sim.Link { return []*sim.Link{m.out} }

// Done implements sim.Component.
func (m *Map) Done() bool {
	if m.cyclic {
		return m.pipe.Len() == 0
	}
	return m.eos
}

// Idle implements sim.Idler: mirrors Tick's three actions — drain a
// matured head, accept input, forward EOS — returning true only when none
// can fire this cycle.
func (m *Map) Idle(cycle int64) bool {
	if m.pipe.Len() > 0 && m.pipe.Front().ready <= cycle && m.out.CanPush() {
		return false
	}
	if !m.eosIn && !m.in.Empty() && m.pipe.Len() < PipelineDepth+2 {
		return false
	}
	if m.eosIn && !m.eos && m.pipe.Len() == 0 && m.out.CanPush() {
		return false
	}
	return true
}

// WakeHint implements sim.WakeHinter: the datapath's only self-timed
// event is the head vector maturing out of the pipeline.
func (m *Map) WakeHint(int64) int64 {
	if m.pipe.Len() > 0 {
		return m.pipe.Front().ready
	}
	return sim.WakeNever
}

// WorstCaseInternalLatency implements sim.LatencyBound: a vector can sit
// in the datapath for the pipeline depth without link activity.
func (m *Map) WorstCaseInternalLatency() int64 { return PipelineDepth }

// Tick implements sim.Component.
func (m *Map) Tick(cycle int64) {
	// Drain pipeline head.
	if m.pipe.Len() > 0 && m.pipe.Front().ready <= cycle && m.out.CanPush() {
		*m.out.StageVec(cycle) = m.pipe.Front().v
		m.pipe.Drop()
	}
	// Accept one vector per cycle.
	if !m.eosIn && !m.in.Empty() && m.pipe.Len() < PipelineDepth+2 {
		f := m.in.Peek()
		m.in.Drop()
		if f.EOS {
			m.eosIn = true
		} else {
			slot := m.pipe.PushRefDirty()
			slot.ready = cycle + PipelineDepth
			slot.v.Reset()
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Valid(i) {
					r := slot.v.PushRef()
					*r = f.Vec.Lane[i]
					m.fn(r)
				}
			}
		}
	}
	// Forward EOS once drained.
	if m.eosIn && !m.eos && m.pipe.Len() == 0 && m.out.CanPush() {
		m.out.PushEOS(cycle)
		m.eos = true
	}
}

// copyVec copies only the valid lanes of src into dst, leaving invalid
// lanes dirty — no reader consults a lane outside the mask, and on the
// sparse streams filters re-pack, lane-wise copying moves a fraction of the
// full 16-lane vector.
func copyVec(dst, src *record.Vector) {
	m := src.Mask
	dst.Mask = m
	if m == (1<<record.NumLanes)-1 {
		dst.Lane = src.Lane
		return
	}
	for m != 0 {
		i := bits.TrailingZeros16(m)
		m &= m - 1
		dst.Lane[i] = src.Lane[i]
	}
}
