package sim

// Batch execution. The scalar contract is one Tick per awake component per
// cycle, with every flit handled by one Peek/Drop or Push call. On dense
// streams that per-flit, per-call bookkeeping — not the modelled hardware —
// dominates wall-clock time. BatchTicker is the vectorized alternative the
// scheduler offers when it can see, from committed link state alone, that a
// component has a block of work: the component processes the same cycle's
// work through the block-transport API (PeekBlock/DropBlock/PushBlock),
// amortizing counter updates and bounds checks over whole spans.
//
// The contract is strict so that batch execution can never be observed in
// results: TickBatch(cycle, n) must have exactly the observable effects of
// Tick(cycle) — the same link pushes and pops, the same state mutations,
// the same Stats increments, the same Done answer afterwards. n is a
// scheduler-computed budget hint (how many flits are visible on the
// richest input, clamped to the scarcest output credit); it is information
// the component could legally derive itself from Visible/Credits, handed
// over so implementations skip re-deriving it. A component is always free
// to process fewer than n flits (its Tick semantics bound what one cycle
// may do); it must never exceed what its scalar Tick would have done.
// Because TickBatch compresses bookkeeping, not simulated time, cycle
// counts, Stats, and DRAM traffic stay bit-identical to scalar runs — the
// property the batch-vs-scalar conformance suite pins on every registered
// blueprint. Multi-cycle compression happens one layer up, in the runner's
// fast-forward (see RunWith), where it is sound because *no* component
// ticks in the skipped stretch.
//
// The scheduler falls back to scalar Tick whenever the budget is below
// BatchMinFlits — thin streams pay for batch setup without amortizing it —
// or the component does not implement the interface. The offer is a
// function of committed link state, so the choice itself is deterministic.

// BatchTicker is optionally implemented by components whose Tick is an
// element-wise loop over link flits. TickBatch must be observably
// identical to Tick (see the package discussion above); it returns the
// number of flits it consumed, which the scheduler records nowhere — the
// value exists for harnesses and debugging.
type BatchTicker interface {
	TickBatch(cycle int64, n int) int
}

// BatchMinFlits is the smallest batch budget worth offering: below this
// the scalar path's simplicity wins.
const BatchMinFlits = 2

// batchBudget computes the batch offer for component i from committed link
// state: the largest visible run on any input, clamped by the scarcest
// output credit. Components with no inputs (sources) are budgeted by
// credit alone; components with no outputs (sinks) by visibility alone.
func (sc *scheduler) batchBudget(i int) int {
	links := sc.sys.links
	n := 0
	ins := sc.inLinks[i]
	for _, id := range ins {
		if v := links[id].nVis; v > n {
			n = v
		}
	}
	if len(ins) == 0 {
		n = int(^uint(0) >> 1)
	}
	if n == 0 {
		return 0
	}
	for _, id := range sc.outLinks[i] {
		if c := links[id].credits; c < n {
			n = c
		}
	}
	return n
}
