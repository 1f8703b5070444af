package sim

import "aurochs/internal/record"

// TypedPorts is the schema-aware extension of InputPorts/OutputPorts. A
// component that implements it declares, per port, the record schema it
// consumes (InputSchemas, parallel to InputLinks) and produces
// (OutputSchemas, parallel to OutputLinks). The fabric verifier
// (fabric.Graph.Check / Prove) propagates these declarations across links:
// a link is well-typed when the producer's output schema is assignable to
// every consumer's input schema under record.Schema.AssignableTo — the
// consumer's fields must be a positional prefix of what the producer
// guarantees.
//
// The contract mirrors the link lists exactly:
//
//   - An empty (or nil) schema slice means the component is untyped on that
//     side; its links are simply not schema-checked. This keeps TypedPorts
//     opt-in per component.
//   - A non-empty slice must have exactly one entry per link in the
//     corresponding port list — including nil-link positions being omitted
//     the same way the port list omits them. A length mismatch is a hard
//     wiring error (fabric.DiagSchemaPorts), never a silent skip.
//   - A nil *record.Schema entry leaves that single port untyped while the
//     others stay checked.
type TypedPorts interface {
	// InputSchemas returns the declared schema for each link in
	// InputLinks(), or an empty slice if the inputs are untyped.
	InputSchemas() []*record.Schema
	// OutputSchemas returns the declared schema for each link in
	// OutputLinks(), or an empty slice if the outputs are untyped.
	OutputSchemas() []*record.Schema
}

// ReorderClass classifies how a component's externally observable effects
// depend on the order in which threads (records) reach it. The paper's
// contract — "thread order is deliberately undefined" (§II) — licenses the
// scratchpad to reorder requests for bank-conflict avoidance; that liberty
// is only sound when every cross-thread effect falls in one of the
// order-insensitive classes below, or is explicitly waived.
type ReorderClass int

const (
	// ReorderPure: no cross-thread state at all — reads, stateless maps,
	// routing. Any interleaving gives identical results.
	ReorderPure ReorderClass = iota
	// ReorderCommutative: updates combine with an associative+commutative
	// operator (add is the canonical case), so every interleaving reaches
	// the same final state even though intermediate responses differ.
	ReorderCommutative
	// ReorderIdempotent: commutative and additionally absorbing
	// (min/max/or): replaying or ignoring duplicates cannot change the
	// fixed point. Strictly stronger than ReorderCommutative.
	ReorderIdempotent
	// ReorderOrderDependent: last-writer-wins or read-modify-write effects
	// whose result depends on arrival order (plain writes, CAS, XCHG).
	// Safe only when addresses are disjoint per thread or an explicit
	// waiver documents why the order cannot be observed.
	ReorderOrderDependent
)

// String renders the class for diagnostics.
func (c ReorderClass) String() string {
	switch c {
	case ReorderPure:
		return "pure"
	case ReorderCommutative:
		return "commutative"
	case ReorderIdempotent:
		return "idempotent"
	case ReorderOrderDependent:
		return "order-dependent"
	default:
		return "reorder-class-invalid"
	}
}

// ReorderDecl is a component's self-declaration to the reorder-safety
// prover: what class of cross-thread effect it has, and whether it can
// itself emit responses out of thread order.
type ReorderDecl struct {
	// Class is the strongest statement the component can make about its
	// cross-thread state updates.
	Class ReorderClass
	// Reorders reports whether the component may emit outputs in a
	// different order than inputs arrived (the Aurochs scratchpad with
	// InOrder=false, the out-of-order DRAM node). Downstream
	// order-dependent consumers of a reordering producer are exactly the
	// hazard the prover rejects.
	Reorders bool
	// Detail names the operation for diagnostics, e.g. "FAA" or
	// "Write(disjoint addrs)".
	Detail string
	// Waiver, when non-empty, accepts an order-dependent effect with a
	// human-written justification. Waived declarations surface in
	// ProofReport.Waived instead of failing the proof.
	Waiver string
}

// ReorderSemantics is implemented by components that touch cross-thread
// state or reorder their streams, so the fabric prover can check the
// undefined-thread-order contract statically. Components that do not
// implement it are treated as pure, in-order plumbing.
type ReorderSemantics interface {
	Reordering() ReorderDecl
}
