// Package flow is a token-flow abstract interpreter over fabric link
// graphs: it tracks per-link token-count intervals and credit obligations
// through an SCC condensation of the node graph (sim.StronglyConnected,
// an iterative Tarjan) and proves four properties —
//
//   - credit sufficiency: every link sustains line rate (cap >= lat+1)
//     and every cycle's links cover its line-rate occupancy
//     (Σcap >= Σlat+1); shortfalls are warnings, since an
//     under-provisioned graph still drains, only slower;
//   - deadlock freedom: every directed credit cycle admits a schedule in
//     which some link always has a free slot, because tokens provably
//     leave the cycle toward drainable consumers;
//   - bounded occupancy: a static upper bound on simultaneous in-flight
//     tokens per link, per cycle, and per node-internal buffer (pipeline
//     registers, compaction accumulators, scratchpad reorder buffers);
//   - loop drain: every LoopMerge cycle quiesces once its sources are
//     exhausted, because the loop control's in-flight count is complete —
//     every token entering the cycle is counted in and every token
//     leaving (exit port, kill, fork delta) is counted out.
//
// When a proof fails the prover emits a wedge witness: a concrete token
// placement (which links fill, which nodes block, how many records the
// external input must inject to reach it) that the fabric's replay
// harness (fabric.ReplayWitness) feeds to a real simulation, asserting
// the engine fails exactly as predicted — differential testing of the
// prover against the simulator.
//
// The package deliberately depends only on internal/sim (for the shared
// Tarjan) and the standard library. The fabric builds Net values from its
// own node types (Graph.FlowNet); hand-built nets drive the unit tests
// and the fuzzer.
package flow

// Kind classifies a node by how it moves tokens. The prover only needs
// conservation behaviour, not compute semantics.
type Kind uint8

const (
	// Opaque is a component the net builder could not classify; the prover
	// trusts nothing about it and warns when one sits on a cycle.
	Opaque Kind = iota
	// SourceKind injects tokens (bounded by Node.Supply) and consumes none.
	SourceKind
	// SinkKind absorbs every token offered, forever.
	SinkKind
	// Transform moves each input token to its single output, possibly after
	// an internal pipeline delay (Map, scratchpad tile, DRAM access node).
	Transform
	// FilterKind routes each input token to exactly one of its output
	// ports, or kills it (a port with Edge < 0, or a route that drops).
	FilterKind
	// MergeKind combines its Pri and Sec inputs into one output. A merge
	// built as a loop entry (Node.LoopEntry) runs the §III-A drain
	// protocol: Sec-side tokens are counted into the loop control.
	MergeKind
	// ForkKind may emit more or fewer tokens than it consumes (thread
	// spawn / kill); the delta is counted into Node.Ctl when one is set.
	ForkKind
)

func (k Kind) String() string {
	switch k {
	case SourceKind:
		return "source"
	case SinkKind:
		return "sink"
	case Transform:
		return "transform"
	case FilterKind:
		return "filter"
	case MergeKind:
		return "merge"
	case ForkKind:
		return "fork"
	default:
		return "opaque"
	}
}

// Port is one output of a node. Edge < 0 is a kill port: tokens routed
// there leave the graph without traversing a link.
type Port struct {
	// Edge indexes Net.Edges, or is -1 for a kill port.
	Edge int
	// Exit marks a port declared as leaving the enclosing loop; tokens
	// routed here are counted out of the loop control when the node
	// carries one.
	Exit bool
}

// Node is one component of the net.
type Node struct {
	// Name matches the simulator component name, so witnesses predict the
	// exact entries of sim.DeadlockError.Stuck.
	Name string
	// Kind is the conservation class.
	Kind Kind
	// LoopEntry marks a merge built with NewLoopMerge: its Sec input is
	// the counted external entry of a cyclic pipeline.
	LoopEntry bool
	// Ctl identifies the loop control this node counts into, or -1. Two
	// nodes share a control iff their Ctl values are equal.
	Ctl int
	// Pri and Sec are a merge's input edge ids (-1 on other kinds).
	Pri, Sec int
	// Amplify marks a node that can emit more tokens than it consumes.
	Amplify bool
	// CanKill marks a node that can retire tokens without an output edge
	// and counts those kills into Ctl (a filter or fork built with a loop
	// control). An undeclared drop is modelled with Lossy instead.
	CanKill bool
	// Lossy marks a node whose response hook may drop tokens
	// (spad.Spec.Lossy); inside a cycle this breaks the drain count
	// unless LossyWaiver justifies it.
	Lossy bool
	// LossyWaiver is the author's audited justification for Lossy inside
	// a loop; non-empty turns the finding into a waived one.
	LossyWaiver string
	// Elastic marks a node with effectively unbounded internal buffering
	// (a spill queue): a cycle through one cannot wedge, though it can
	// still stall at end-of-stream.
	Elastic bool
	// Resident bounds the records simultaneously buffered inside the node
	// (pipeline registers, accumulators, reorder buffers).
	Resident int
	// Supply bounds the records a source injects; -1 is unbounded or
	// unknown.
	Supply int
	// In and Out list the node's ports in declaration order.
	In, Out []Port
}

// Edge is one link: a bounded, credit-controlled token buffer with
// exactly one producer and one consumer.
type Edge struct {
	// Name matches the simulator link name ("link:"+Name in stuck sets).
	Name string
	// From and To index Net.Nodes.
	From, To int
	// Cap is the link capacity in flits, Lat its latency in cycles.
	Cap, Lat int
}

// Net is the abstract link graph the prover interprets.
type Net struct {
	Nodes []Node
	Edges []Edge
	// Lanes is the records-per-flit vector width (record.NumLanes).
	Lanes int
}
