// Package sim is the cycle-level simulation kernel underneath the Aurochs
// fabric model. It provides a synchronous clock, registered links between
// components, and a runner with progress-based deadlock detection.
//
// The timing discipline is the one that makes cyclic dataflow graphs (the
// paper's recirculating while-loops) safe to simulate deterministically:
// every link is *registered* — a value pushed in cycle N becomes visible to
// the consumer in cycle N+1 at the earliest — so the order in which
// components tick within a cycle can never change the result. This mirrors
// the skid-buffered ready-valid streaming interface that loosely times
// Gorgon's tiles (paper §III-A).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Component is one clocked element of the fabric: a compute tile, a
// scratchpad pipeline, a DRAM channel group. Tick is called once per cycle
// with the current cycle number; components observe link state as committed
// at the end of the previous cycle and stage pushes for the next.
type Component interface {
	// Name identifies the component in stats and error messages.
	Name() string
	// Tick advances the component by one cycle.
	Tick(cycle int64)
	// Done reports whether the component has fully drained: it has seen
	// end-of-stream on all inputs, forwarded it, and holds no state that
	// could still produce output.
	Done() bool
}

// Idler is optionally implemented by components that can prove a Tick
// would be a no-op. Idle(cycle) must return true only when Tick(cycle)
// would neither mutate component state nor touch any link or shared
// resource — the runner then skips the call entirely. The answer must be a
// deterministic function of simulation state (never host time or
// randomness) so runs stay bit-reproducible.
type Idler interface {
	Idle(cycle int64) bool
}

// LatencyBound is optionally implemented by components that can hide work
// from the links for many cycles (DRAM round trips are the canonical
// case). WorstCaseInternalLatency returns an upper bound, in cycles, on
// how long the component can go without producing link activity while
// still holding work. The runner sums these bounds into its deadlock grace
// window, replacing a hard-coded constant that deep memory queues could
// legally exceed.
type LatencyBound interface {
	WorstCaseInternalLatency() int64
}

// Recycler is optionally implemented by components that hold storage only
// a running graph needs. Once a run has drained — every component Done —
// the runner calls Recycle, as it hands back the links' rings, so the
// component can return that storage for the next graph. Runs that end in
// a DeadlockError or BudgetError do not call it, so what they stranded
// stays inspectable. A component run again after Recycle must work
// without the storage it handed back.
type Recycler interface {
	Recycle()
}

// InputPorts is implemented by components that can report the links they
// pop from. Together with OutputPorts it lets the fabric's static verifier
// (fabric.Graph.Check) reconstruct the graph topology without instrumenting
// the simulation path.
// Every component shipped in this repository implements the interfaces;
// custom components wired into a fabric.Graph must too, or Check will
// report their links as unclaimed.
type InputPorts interface {
	// InputLinks returns the links the component consumes. Nil entries
	// are reported as wiring bugs.
	InputLinks() []*Link
}

// OutputPorts is the producer-side counterpart of InputPorts.
type OutputPorts interface {
	// OutputLinks returns the links the component pushes to. Nil entries
	// are reported as wiring bugs.
	OutputLinks() []*Link
}

// System owns the clock, components, and links of one simulation.
type System struct {
	comps  []Component
	idlers []Idler // parallel to comps; nil where not implemented
	links  []*Link
	cycle  int64
	stats  *Stats
}

// NewSystem creates an empty simulation.
func NewSystem() *System {
	return &System{stats: NewStats()}
}

// Stats returns the system-wide counter set.
func (s *System) Stats() *Stats { return s.stats }

// Cycle returns the current cycle number.
func (s *System) Cycle() int64 { return s.cycle }

// Add registers a component. Components tick in registration order; because
// links are registered, the order is not observable in results.
func (s *System) Add(c Component) {
	s.comps = append(s.comps, c)
	idler, _ := c.(Idler)
	s.idlers = append(s.idlers, idler)
}

// Components returns the registered components in registration order.
func (s *System) Components() []Component { return s.comps }

// Links returns the registered links in creation order.
func (s *System) Links() []*Link { return s.links }

// NewLink creates and registers a link with the given capacity and latency.
// Capacity is the skid-buffer depth (entries buffered at the consumer);
// latency models interconnect hops and must be >= 1 (registered).
func (s *System) NewLink(name string, capacity, latency int) *Link {
	l := newLink(name, capacity, latency)
	s.links = append(s.links, l)
	return l
}

// DeadlockError reports a simulation that stopped making progress before
// all components drained.
type DeadlockError struct {
	Cycle int64
	Stuck []string    // components not Done
	Links []LinkState // links still holding flits, in creation order
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d; stuck components: %v; links holding flits: %s", e.Cycle, e.Stuck, formatLinks(e.Links))
}

// BudgetError reports a simulation that exhausted its cycle budget while
// components still held work — the runner's other failure mode, typed so
// harnesses can distinguish "too slow / budget too small" from a genuine
// deadlock.
type BudgetError struct {
	Budget int64
	Cycle  int64
	Stuck  []string    // components not Done
	Links  []LinkState // links still holding flits, in creation order
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget %d exhausted at cycle %d; stuck components: %v; links holding flits: %s", e.Budget, e.Cycle, e.Stuck, formatLinks(e.Links))
}

// LinkState is one link's occupancy when a run failed: the flits its
// consumer can pop, the flits still in flight towards it, and the credits
// its producer holds. A ring of links at visible=capacity, credits=0 is a
// saturated loop: every member waits on the next.
type LinkState struct {
	Name     string
	Visible  int
	InFlight int
	Credits  int
}

func (ls LinkState) String() string {
	return fmt.Sprintf("%s visible=%d inflight=%d credits=%d", ls.Name, ls.Visible, ls.InFlight, ls.Credits)
}

func formatLinks(ls []LinkState) string {
	s := make([]string, len(ls))
	for i, l := range ls {
		s[i] = l.String()
	}
	return "[" + strings.Join(s, ", ") + "]"
}

// RunOptions selects the reference mode of the tick kernel.
type RunOptions struct {
	// NoIdleSkip turns the runner into the polling reference: Idle is
	// never consulted and every component ticks every cycle. Results —
	// cycles, Stats, link traffic, errors — are bit-identical either way
	// for components honouring the Idler contract; the equivalence suites
	// run each graph both ways to prove it.
	NoIdleSkip bool
}

// Run ticks the system until every component reports Done, the cycle budget
// is exhausted, or no progress is observed for a grace window. It returns
// the number of cycles simulated.
func (s *System) Run(maxCycles int64) (int64, error) {
	return s.RunWith(maxCycles, RunOptions{})
}

// RunWith is Run with an explicit reference mode. There is one way to
// advance a cycle: every component that does not answer Idle gets one Tick,
// in registration order, then the links with pending work commit (see
// run.go). Idle components are skipped, but no cycle is: the clock and the
// no-progress counter advance one cycle at a time, so results and error
// cycles are bit-identical to the polling reference (RunOptions.NoIdleSkip).
func (s *System) RunWith(maxCycles int64, opt RunOptions) (int64, error) {
	for _, l := range s.links {
		l.acquireRing() // a no-op unless an earlier drained run recycled it
	}
	grace := s.graceWindow()
	r := newRunner(s, opt.NoIdleSkip)
	defer r.detach()
	idle := int64(0)
	start := s.cycle
	for s.cycle-start < maxCycles {
		if r.allDone() {
			s.recycle()
			return s.cycle - start, nil
		}
		moved := r.step(s.cycle)
		s.cycle++
		if moved {
			idle = 0
		} else {
			idle++
			if idle > grace {
				return s.cycle - start, &DeadlockError{Cycle: s.cycle, Stuck: s.stuckNames(), Links: s.stuckLinks()}
			}
		}
	}
	if r.allDone() {
		s.recycle()
		return s.cycle - start, nil
	}
	return s.cycle - start, &BudgetError{Budget: maxCycles, Cycle: s.cycle, Stuck: s.stuckNames(), Links: s.stuckLinks()}
}

// recycle hands every link's ring, and every Recycler's storage, back for
// reuse once a run has drained them all. Runs that end in an error keep
// theirs, so the stuck flits stay inspectable.
func (s *System) recycle() {
	for _, l := range s.links {
		l.releaseRing()
	}
	for _, c := range s.comps {
		if r, ok := c.(Recycler); ok {
			r.Recycle()
		}
	}
}

// graceWindow derives the deadlock detector's no-progress tolerance from
// the registered topology: a base allowance for fabric pipelines, the
// worst link latency, and every component-declared internal latency bound
// (DRAM queues, scratchpad pipelines). A fixed constant here was a bug:
// a legal dram.Config with a deep queue and a large row-miss penalty could
// exceed any constant and be misreported as deadlock.
func (s *System) graceWindow() int64 {
	g := int64(256)
	maxLat := 0
	for _, l := range s.links {
		if l.latency > maxLat {
			maxLat = l.latency
		}
	}
	g += int64(4 * maxLat)
	for _, c := range s.comps {
		if lb, ok := c.(LatencyBound); ok {
			g += lb.WorstCaseInternalLatency()
		}
	}
	return g
}

// allDone is the full-sweep termination check; the runner proper uses its
// O(1) incremental version, but the conformance harness (which instruments
// every cycle anyway) keeps using this one.
func (s *System) allDone() bool {
	for _, c := range s.comps {
		if !c.Done() {
			return false
		}
	}
	for _, l := range s.links {
		if !l.Drained() {
			return false
		}
	}
	return true
}

func (s *System) stuckNames() []string {
	var out []string
	for _, c := range s.comps {
		if !c.Done() {
			out = append(out, c.Name())
		}
	}
	for _, l := range s.links {
		if !l.Drained() {
			out = append(out, "link:"+l.name)
		}
	}
	sort.Strings(out)
	return out
}

// stuckLinks reports every link that still holds flits, for the error of
// a run that did not drain.
func (s *System) stuckLinks() []LinkState {
	var out []LinkState
	for _, l := range s.links {
		if !l.Drained() {
			out = append(out, LinkState{Name: l.name, Visible: l.nVis, InFlight: l.nFly, Credits: l.credits})
		}
	}
	return out
}
