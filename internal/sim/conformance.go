package sim

import "fmt"

// This file is the runtime half of the tickpurity/idle contract that
// internal/analysis checks statically: a conformance harness that runs a
// system with every Idle answer cross-checked against the Tick it would
// have suppressed. The static analyzer proves observation methods cannot
// write state; this harness proves the *answers* are right — that a
// component claiming quiescence really has nothing to do. Component
// packages drive it from table-driven tests covering each registered
// component type.

// IdleViolation reports one breach of the Idler contract observed by
// VerifyIdleContract.
type IdleViolation struct {
	// Component is the offender's Name().
	Component string
	// Cycle is when the breach was observed.
	Cycle int64
	// What describes the breach.
	What string
}

func (e *IdleViolation) Error() string {
	return fmt.Sprintf("sim: idle contract violated by %q at cycle %d: %s", e.Component, e.Cycle, e.What)
}

// VerifyIdleContract runs the system to completion on an instrumented
// serial kernel that never actually skips: whenever a component answers
// Idle(cycle)=true, its Tick is invoked anyway and must prove to be the
// no-op the contract promises — no link push or pop anywhere in the
// system, and no change to Done(). Idle is also asked twice to catch
// answers that depend on anything but simulation state. The first breach
// aborts the run as an *IdleViolation; a clean run that fails to drain
// within maxCycles returns *BudgetError, so a component whose Idle=true
// starves its own pending work (the runner would skip it forever) is
// caught by the same harness even though each individual answer looked
// harmless.
func VerifyIdleContract(sys *System, maxCycles int64) error {
	start := sys.cycle
	for sys.cycle-start < maxCycles {
		if sys.allDone() {
			return nil
		}
		cycle := sys.cycle
		for i, c := range sys.comps {
			idler := sys.idlers[i]
			claimed := idler != nil && idler.Idle(cycle)
			if claimed && !idler.Idle(cycle) {
				return &IdleViolation{Component: c.Name(), Cycle: cycle,
					What: "Idle answered true then false in the same cycle; the answer must be a pure function of simulation state"}
			}
			doneBefore := c.Done()
			pushes, pops := sys.linkTotals()
			c.Tick(cycle)
			if claimed {
				p, q := sys.linkTotals()
				if p != pushes || q != pops {
					return &IdleViolation{Component: c.Name(), Cycle: cycle,
						What: fmt.Sprintf("Idle answered true but Tick moved data (%d pushes, %d pops); the runner would have skipped real work", p-pushes, q-pops)}
				}
				if c.Done() != doneBefore {
					return &IdleViolation{Component: c.Name(), Cycle: cycle,
						What: "Idle answered true but Tick changed Done()"}
				}
			}
		}
		for _, l := range sys.links {
			l.commit(cycle)
		}
		sys.cycle++
	}
	if sys.allDone() {
		return nil
	}
	return &BudgetError{Budget: maxCycles, Cycle: sys.cycle, Stuck: sys.stuckNames(), Links: sys.stuckLinks()}
}

// WakeViolation reports a breach of the wake-registration contract
// observed by VerifyWakeContract: a component the event scheduler put to
// sleep answered Idle=false on a cycle no wake event targeted it.
type WakeViolation struct {
	// Component is the offender's Name().
	Component string
	// Cycle is when the breach was observed.
	Cycle int64
	// What describes the breach.
	What string
}

func (e *WakeViolation) Error() string {
	return fmt.Sprintf("sim: wake contract violated by %q at cycle %d: %s", e.Component, e.Cycle, e.What)
}

// VerifyWakeContract is the event-scheduler extension of
// VerifyIdleContract: it runs the system on the wake kernel, wired exactly
// as RunWith wires it (dirty-link commit included), and on every cycle
// cross-checks each *sleeping* component's Idle answer. A sleeping
// component answering Idle=false has work the scheduler does not know
// about — its WakeHint failed to register an internal timer, or its
// state is mutated through a channel not declared via ports/SharedState —
// and the polling kernel would have ticked it, so the kernels diverge.
// The first breach aborts the run as a *WakeViolation; a clean run that
// fails to drain within maxCycles returns *BudgetError (a missed wake that
// only ever manifests as a stall is still caught).
func VerifyWakeContract(sys *System, maxCycles int64) error {
	sched := newScheduler(sys)
	defer sched.detach()
	start := sys.cycle
	for sys.cycle-start < maxCycles {
		if sched.allDone() {
			return nil
		}
		cycle := sys.cycle
		sched.beginCycle(cycle)
		// Every cycle is audited, including quiescent ones (exactly where
		// a missed wake registration hides).
		for i, c := range sys.comps {
			if sched.awake.get(i) {
				continue // scheduled for examination this cycle
			}
			if sys.idlers[i] != nil && !sys.idlers[i].Idle(cycle) {
				return &WakeViolation{Component: c.Name(), Cycle: cycle,
					What: "asleep but Idle answered false: the component has work no wake event announces (missing WakeHint timer or undeclared shared state)"}
			}
		}
		sched.step(cycle)
		sys.cycle++
	}
	if sched.allDone() {
		return nil
	}
	return &BudgetError{Budget: maxCycles, Cycle: sys.cycle, Stuck: sys.stuckNames(), Links: sys.stuckLinks()}
}

// linkTotals sums cumulative push and pop counts across every link —
// the cheap observable the conformance harness differences around a Tick.
func (s *System) linkTotals() (pushes, pops int64) {
	for _, l := range s.links {
		pushes += l.pushes
		pops += l.pops
	}
	return pushes, pops
}
