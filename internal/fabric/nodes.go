package fabric

import (
	"iter"
	"math/bits"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Source streams records into the fabric, packing up to one vector
// (NumLanes records) per cycle, then signals end-of-stream. Each record is
// built by a generator straight into the staged link slot, so a source
// never materialises its stream on the host: a kernel whose input threads
// are computed from something smaller (a key, an index) builds them as
// they stream, and a source over a record slice copies each record once.
type Source struct {
	name   string
	out    *sim.Link
	gen    func(i int, r *record.Rec)
	n      int
	pos    int
	eos    bool
	schema *record.Schema
}

// NewSourceFunc builds a source that emits n records densely, in order:
// record i is whatever gen(i, r) writes into r. r points into the link
// slot and holds stale lanes from earlier flits, so gen must write the
// whole record (every field it reads downstream, and N). gen is called
// once per record, in index order, and must not retain r.
func NewSourceFunc(name string, n int, gen func(i int, r *record.Rec), out *sim.Link) *Source {
	return &Source{name: name, out: out, gen: gen, n: n}
}

// NewSource builds a source that emits recs densely, in order. The source
// reads recs in place: the caller may not modify the slice until the graph's
// Run returns.
func NewSource(name string, recs []record.Rec, out *sim.Link) *Source {
	return NewSourceFunc(name, len(recs), func(i int, r *record.Rec) { *r = recs[i] }, out)
}

// Name implements sim.Component.
func (s *Source) Name() string { return s.name }

// OutputLinks implements sim.OutputPorts.
func (s *Source) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component.
func (s *Source) Done() bool { return s.eos }

// Idle implements sim.Idler: nothing to do once drained or backpressured.
func (s *Source) Idle(int64) bool { return s.eos || !s.out.CanPush() }

// Tick implements sim.Component.
func (s *Source) Tick(cycle int64) {
	if s.eos || !s.out.CanPush() {
		return
	}
	if s.pos < s.n {
		// Up to NumLanes records are built straight into the slot's low
		// lanes, so the vector is dense.
		v := s.out.StageVec(cycle)
		n := s.n - s.pos
		if n > record.NumLanes {
			n = record.NumLanes
		}
		for i := 0; i < n; i++ {
			s.gen(s.pos+i, &v.Lane[i])
		}
		v.Mask = uint16(1<<uint(n) - 1)
		s.pos += n
		return
	}
	s.out.PushEOS(cycle)
	s.eos = true
}

// Sink observes a stream's end and counts its records. A sink built by
// NewSink also stores them for Records and AppendTo; one built by
// NewCountSink stores nothing, for kernels whose exit stream is only
// counted. A storing sink packs its records into chunks (record.Chunks):
// a record takes its live fields plus one word, is written once, and the
// store never reallocates as it grows.
type Sink struct {
	name      string
	in        *sim.Link
	recs      record.Chunks
	flat      []record.Rec // Records' result, built on the first call after the stream ends
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
// Count works as for NewSink, Records and AppendTo store nothing.
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
			s.recs.AppendVec(&f.Vec)
		}
	}
}

// Records returns everything collected so far, in arrival order, as one
// slice; nil for a count-only sink. The slice is built once and returned
// again by later calls until more records arrive. Callers gathering
// several sinks into one result should presize it from Count and use
// AppendTo instead, which skips this copy.
func (s *Sink) Records() []record.Rec {
	if s.recs.Len() == 0 {
		return nil
	}
	if len(s.flat) != s.recs.Len() {
		s.flat = s.recs.AppendTo(make([]record.Rec, 0, s.recs.Len()))
	}
	return s.flat
}

// AppendTo appends the collected records to dst in arrival order and
// returns the extended slice; a count-only sink appends nothing. A dst
// with room for Count more records is not reallocated.
func (s *Sink) AppendTo(dst []record.Rec) []record.Rec { return s.recs.AppendTo(dst) }

// All yields the collected records in arrival order, each rebuilt in one
// scratch record that is valid until the next iteration: a caller that
// converts them reads each once and copies nothing. A count-only sink
// yields nothing.
func (s *Sink) All() iter.Seq[*record.Rec] { return s.recs.All() }

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

// pipes recycles the Map and Filter datapath queues. Accept holds a pipe
// to PipelineDepth+2 vectors, so every pipe has that size; a node takes
// one at construction and hands it back after a drained run, instead of
// leaving ~6.8 KB per node in every new graph to the collector.
var pipes = ring.NewPool[timedVec](PipelineDepth + 2)

// NewMap builds a map tile applying fn, in place, to every record.
func NewMap(name string, fn func(*record.Rec), in, out *sim.Link) *Map {
	m := &Map{name: name, fn: fn, in: in, out: out}
	pipes.Get(&m.pipe)
	return m
}

// Recycle implements sim.Recycler: a drained map hands its pipe back.
func (m *Map) Recycle() { pipes.Put(&m.pipe) }

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
