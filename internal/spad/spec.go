package spad

import (
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// Op selects the operation a scratchpad stream performs. Each of the two
// streams of a scratchpad is statically configured as a read, write, or
// read-modify-write stream (paper §III-B).
type Op uint8

const (
	// OpRead gathers Width words starting at the request address.
	OpRead Op = iota
	// OpWrite scatters Width words starting at the request address.
	OpWrite
	// OpCAS atomically compares word[addr] with the expected value and
	// stores the new value on match; the response carries the observed
	// value. Width is implicitly 1.
	OpCAS
	// OpFAA atomically fetches word[addr] and adds a delta; the response
	// carries the pre-add value. Width is implicitly 1.
	OpFAA
	// OpXCHG atomically exchanges word[addr] with the supplied value; the
	// response carries the previous value. Width is implicitly 1.
	OpXCHG
	// OpModify atomically applies the Spec's Modify combiner to word[addr];
	// the response carries the pre-modify value. Width is implicitly 1.
	// This models the small RMW ALU in the scratchpad's fused read-modify-
	// write pipeline (saturating counters, min/max, etc.).
	OpModify
)

// String names the op for stats and errors.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpFAA:
		return "faa"
	case OpXCHG:
		return "xchg"
	case OpModify:
		return "modify"
	}
	return "op?"
}

// IsRMW reports whether the op uses the fused read-modify-write pipeline.
func (o Op) IsRMW() bool {
	return o == OpCAS || o == OpFAA || o == OpXCHG || o == OpModify
}

// Commutativity classifies the op for the reorder-safety prover: does the
// final memory state depend on the order in which threads reach the bank?
// The paper's undefined-thread-order contract (§II) is sound exactly when
// every cross-thread update lands in one of the order-insensitive classes.
//
//	read    pure             no memory effect at all
//	faa     commutative      a+b+c sums the same in any order (responses —
//	                         the observed pre-add values — do differ per
//	                         interleaving, but their multiset is fixed)
//	write   order-dependent  last writer wins
//	cas     order-dependent  success depends on the observed value
//	xchg    order-dependent  both the stored and returned values do
//	modify  order-dependent  unknown combiner; a Spec can upgrade it by
//	                         declaring a Combiner with a stronger class
//
// This is the op's intrinsic class; Spec.EffectiveClass refines it with
// per-stream knowledge (a declared Combiner, provably disjoint addresses).
func (o Op) Commutativity() sim.ReorderClass {
	switch o {
	case OpRead:
		return sim.ReorderPure
	case OpFAA:
		return sim.ReorderCommutative
	default:
		return sim.ReorderOrderDependent
	}
}

// CombineFn is a named, classified combiner for OpModify streams. Declaring
// one (instead of a bare Modify closure) is what lets Graph.Check accept
// the stream: the Class field is the stream author's machine-checked claim
// about the combiner's algebra.
type CombineFn struct {
	// Name identifies the combiner in diagnostics ("add", "min", ...).
	Name string
	// Class is the combiner's reorder class. Shipped combiners are
	// commutative or idempotent; a kernel may construct its own (e.g. a
	// saturating counter) and vouch for its class.
	Class sim.ReorderClass
	// Fn folds one thread's argument into the current memory word.
	Fn func(cur, arg uint32) uint32
}

// Shipped combiners, covering the paper's RMW ALU menu (§III-B). min/max/or
// are idempotent — replaying an update cannot move the fixed point — which
// is strictly stronger than add's plain commutativity.
var (
	CombineAdd = &CombineFn{Name: "add", Class: sim.ReorderCommutative,
		Fn: func(cur, arg uint32) uint32 { return cur + arg }}
	CombineMin = &CombineFn{Name: "min", Class: sim.ReorderIdempotent,
		Fn: func(cur, arg uint32) uint32 {
			if arg < cur {
				return arg
			}
			return cur
		}}
	CombineMax = &CombineFn{Name: "max", Class: sim.ReorderIdempotent,
		Fn: func(cur, arg uint32) uint32 {
			if arg > cur {
				return arg
			}
			return cur
		}}
	CombineOr = &CombineFn{Name: "or", Class: sim.ReorderIdempotent,
		Fn: func(cur, arg uint32) uint32 { return cur | arg }}
)

// Spec is the static reconfiguration of one scratchpad stream: how a thread
// record encodes its request, and how the response mutates the thread. The
// closures are fixed at graph-construction time — the software analogue of
// reconfiguring the tile before a kernel runs — and must be pure functions
// of the record (plus the memory response).
type Spec struct {
	// Op is the stream's operation.
	Op Op
	// Width is the words accessed per request for OpRead/OpWrite.
	// RMW ops always access one word.
	Width int
	// Addr extracts the word address from a thread record. The record is
	// passed by pointer purely to avoid a copy per call on the request hot
	// path; Addr must not mutate it.
	Addr func(r *record.Rec) uint32
	// Data supplies write data word i (0 <= i < Width) for OpWrite.
	// For OpCAS, Data(r, 0) is the expected old value and Data(r, 1) the
	// new value. For OpFAA it is the delta; for OpXCHG the new value.
	// Like Addr, Data must not mutate the record.
	Data func(r *record.Rec, i int) uint32
	// Modify is the combiner for OpModify: it receives the current memory
	// word and the thread record and returns the value to store. It must
	// not mutate the record.
	Modify func(cur uint32, r *record.Rec) uint32
	// Apply merges the response into the thread record, mutating it in
	// place. resp holds Width words for OpRead and one word (the pre-op
	// value) for RMW ops; it is nil for OpWrite. resp is only valid for the
	// duration of the call — the tile recycles the buffer after Apply
	// returns, so copy values out rather than retaining the slice.
	// Returning keep == false drops the thread (rarely used; filtering
	// normally happens in compute tiles).
	Apply func(r *record.Rec, resp []uint32) (keep bool)

	// In, when set, declares the schema of thread records this stream
	// consumes; Out the schema it produces (often wider, when Apply stamps
	// the response into a new field). Either may be nil to leave that side
	// untyped. The owning Tile exposes them through sim.TypedPorts.
	In *record.Schema
	// Out: see In.
	Out *record.Schema

	// Combiner classifies an OpModify stream for the reorder-safety
	// prover. When set and Modify is nil, the tile derives the modify
	// function as Combiner.Fn(cur, Data(r, 0)) (arg 0 when Data is nil).
	Combiner *CombineFn
	// DisjointAddrs asserts that no two in-flight threads address the same
	// word (e.g. each thread writes its own ticketed slot). It lifts an
	// order-dependent op to commutative for the prover: updates that never
	// collide cannot observe each other's order. The assertion is the
	// kernel author's to make — it is stated here so it is auditable in
	// one place and visible to the reorder-safety check.
	DisjointAddrs bool
	// OrderWaiver accepts a genuinely order-dependent stream with a
	// human-written justification. Waived streams surface in
	// ProofReport.Waived rather than failing the reorder-safety proof.
	OrderWaiver string
	// Lossy declares that Apply may return keep == false, dropping the
	// thread. The token-flow prover must know: a drop inside a cyclic
	// pipeline is an exit the loop control never counts, so the loop can
	// never prove itself drained. Streams that keep every thread (the
	// overwhelming default) leave this false; the declaration is the
	// author's, mirroring DisjointAddrs.
	Lossy bool
	// LossyWaiver justifies Lossy on a cyclic path (e.g. "drops are
	// re-driven by the retry filter"); non-empty turns the prover's
	// finding into a waived, auditable fact.
	LossyWaiver string
}

// EffectiveClass is the stream's reorder class after applying per-stream
// refinements to the op's intrinsic class: a declared Combiner overrides
// OpModify's unknown-combiner pessimism, and DisjointAddrs lifts an
// order-dependent op to commutative (non-colliding updates cannot observe
// each other's order).
func (s *Spec) EffectiveClass() sim.ReorderClass {
	c := s.Op.Commutativity()
	if s.Op == OpModify && s.Combiner != nil {
		c = s.Combiner.Class
	}
	if c == sim.ReorderOrderDependent && s.DisjointAddrs {
		c = sim.ReorderCommutative
	}
	return c
}

// Decl builds the stream's reorder-safety declaration; reorders reports
// whether the owning pipeline may emit responses out of thread order.
func (s *Spec) Decl(reorders bool) sim.ReorderDecl {
	detail := s.Op.String()
	if s.Op == OpModify && s.Combiner != nil {
		detail += "(" + s.Combiner.Name + ")"
	}
	if s.DisjointAddrs {
		detail += "(disjoint addrs)"
	}
	return sim.ReorderDecl{
		Class:    s.EffectiveClass(),
		Reorders: reorders,
		Detail:   detail,
		Waiver:   s.OrderWaiver,
	}
}

// width returns the effective words accessed.
func (s *Spec) width() int {
	if s.Op.IsRMW() {
		return 1
	}
	if s.Width <= 0 {
		return 1
	}
	return s.Width
}
