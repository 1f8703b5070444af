package fabric

import "aurochs/internal/sim"

// Drain roles (paper §III-A). End-of-stream enters a loop only once the
// loop's LoopCtl has proven it empty, so a node on the recirculating path
// never sees a stream-end token and must count as done whenever it holds
// no thread; every other node is done once it has forwarded the token.
// Which nodes can ever see end-of-stream is a fact of the wiring, so
// Graph.Check derives each role rather than each kernel declaring it.
//
// The derivation is one least fixed point over the attributed links,
// asking which links can ever carry end-of-stream:
//
//   - a node with no inputs (a source) emits it;
//   - a loop-entry merge emits it when its external input carries it;
//   - a filter emits it on each non-NoEOS output when its input carries it;
//   - any other node emits it when every one of its inputs carries it.
//
// A Map, Filter, Merge or Fork that emits end-of-stream on no output is
// done when empty. A loop-entry merge never is: it owns its loop's stream
// end, and one whose external input cannot carry it is a wiring fault
// that must show as a stuck entry, not a silent drain.

// deriveDrainRoles sets the drain role of every Map, Filter, Merge and Fork
// in comps. It marks the links of ends that can carry end-of-stream.
func deriveDrainRoles(comps []sim.Component, ends map[*sim.Link]*linkEnds) {
	carries := func(l *sim.Link) bool {
		e := ends[l]
		return e != nil && e.eos
	}
	changed := true
	emit := func(l *sim.Link) {
		if e := ends[l]; e != nil && !e.eos {
			e.eos, changed = true, true
		}
	}
	for changed {
		changed = false
		for _, c := range comps {
			switch n := c.(type) {
			case *Filter:
				if carries(n.in) {
					for _, o := range n.outs {
						if !o.NoEOS {
							emit(o.Link)
						}
					}
				}
			case *Merge:
				if carries(n.sec) && (n.loopEntry() || carries(n.pri)) {
					emit(n.out)
				}
			case sim.OutputPorts:
				if ip, ok := c.(sim.InputPorts); ok {
					all := true
					for _, l := range ip.InputLinks() {
						all = all && carries(l)
					}
					if !all {
						continue
					}
				}
				for _, l := range n.OutputLinks() {
					emit(l)
				}
			}
		}
	}
	for _, c := range comps {
		switch n := c.(type) {
		case *Map:
			n.doneWhenEmpty = !carries(n.out)
		case *Fork:
			n.doneWhenEmpty = !carries(n.out)
		case *Merge:
			n.doneWhenEmpty = !n.loopEntry() && !carries(n.out)
		case *Filter:
			n.doneWhenEmpty = true
			for _, o := range n.outs {
				if !o.NoEOS && carries(o.Link) {
					n.doneWhenEmpty = false
				}
			}
		}
	}
}
