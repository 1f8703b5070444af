package fabric

import (
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// Loop admission control (DESIGN.md §13). A recirculating pipeline wedges
// once its live thread population reaches the ring's token capacity: every
// link slot is full and every member is blocked on the next. Threads that
// lap the loop many times (long probe chains, CAS retries on a hot bucket)
// let an ungated entry get there, in a graph the flow prover passes. The
// entry merge therefore admits an external vector only while the loop's
// in-flight count stays within a bound. The bound is a fact of the
// topology, so the graph derives it from the rings checkCycles finds
// rather than each kernel counting its own links:
//
//   - half the ring's token capacity: Σ capacity × NumLanes over the links
//     whose producer and consumer both sit in the ring, halved, which
//     leaves the ring permanent slack to drain;
//   - never less than one full vector, so a ring of tiny links still
//     admits work;
//   - unbounded for a ring holding a SpillQueue: the queue absorbs any
//     population by spilling to DRAM, and gating it would only throttle
//     the tree-walk fan-out it exists to buffer.
//
// A LoopCtl serving several rings takes the smallest bound among them.

// armAdmission installs each loop's admission bound on the LoopCtl of its
// loop-entry merges. inCycle maps each component to 1 + the ordinal of its
// strongly connected component (of sccs) when that component is a cycle,
// and to 0 when the component is on no cycle.
func (g *Graph) armAdmission(comps []sim.Component, ends map[*sim.Link]*linkEnds, inCycle []int, sccs int) {
	tokens := make([]int64, sccs+1)
	elastic := make([]bool, sccs+1)
	for _, l := range g.Sys.Links() {
		e := ends[l]
		if e == nil || len(e.producers) != 1 || len(e.consumers) != 1 {
			continue // multi-ended links are Check errors with no flow meaning
		}
		if r := inCycle[e.producers[0]]; r != 0 && r == inCycle[e.consumers[0]] {
			tokens[r] += int64(l.Capacity()) * record.NumLanes
		}
	}
	for i, c := range comps {
		if _, ok := c.(*SpillQueue); ok {
			elastic[inCycle[i]] = true
		}
	}
	bound := make(map[*LoopCtl]int64)
	for i, c := range comps {
		m, ok := c.(*Merge)
		if !ok || !m.loopEntry() || inCycle[i] == 0 || elastic[inCycle[i]] {
			continue
		}
		b := max(tokens[inCycle[i]]/2, record.NumLanes)
		if cur := bound[m.ctl]; cur == 0 || b < cur {
			bound[m.ctl] = b
		}
	}
	for _, c := range comps {
		if m, ok := c.(*Merge); ok && m.loopEntry() {
			m.ctl.limit = bound[m.ctl]
		}
	}
}
