package sim

import (
	"errors"
	"testing"

	"aurochs/internal/record"
)

func oneRecFlit(v uint32) Flit {
	var vec record.Vector
	vec.Push(record.Make(v))
	return Flit{Vec: vec}
}

// TestCanPushOrderIndependent pins the credit contract: a pop earlier in
// the same cycle must not make CanPush flip from false to true — credits
// return only at commit. (The old accounting computed fullness live from
// len(buf)+len(inflight), so whether a producer saw space depended on
// whether the consumer had already ticked.)
func TestCanPushOrderIndependent(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("x", 1, 1)

	l.Push(0, oneRecFlit(7))
	if l.CanPush() {
		t.Fatal("capacity-1 link should be full after one push")
	}
	l.commit(0)
	if l.CanPush() {
		t.Fatal("flit occupies the buffer; no credit should return")
	}

	// Cycle 1: the consumer pops. Mid-cycle the producer must still see no
	// credit; only the commit at end of cycle returns it.
	l.Pop()
	if l.CanPush() {
		t.Fatal("CanPush flipped mid-cycle after a pop: tick order is observable")
	}
	l.commit(1)
	if !l.CanPush() {
		t.Fatal("credit did not return at commit")
	}
}

// TestLongLatencyLinkThroughput: a link whose capacity covers its latency
// window sustains one flit per cycle. Under the old accounting in-flight
// entries and buffered entries competed for the same space check with no
// documented contract; the credit formulation makes the requirement
// explicit — capacity >= latency+1 for full throughput.
func TestLongLatencyLinkThroughput(t *testing.T) {
	const latency = 4
	s := NewSystem()
	l := s.NewLink("deep", latency+4, latency)

	const cycles = 200
	pushed, popped := 0, 0
	for c := int64(0); c < cycles; c++ {
		if l.CanPush() {
			l.Push(c, oneRecFlit(uint32(pushed)))
			pushed++
		}
		if !l.Empty() {
			f := l.Pop()
			if got := f.Vec.Lane[0].Get(0); got != uint32(popped) {
				t.Fatalf("flit %d arrived out of order (got %d)", popped, got)
			}
			popped++
		}
		l.commit(c)
	}
	// Steady state is one flit per cycle; only the fill of the latency
	// window is lost.
	if popped < cycles-2*latency {
		t.Fatalf("popped %d of %d cycles: long-latency link does not sustain line rate", popped, cycles)
	}

	// A capacity smaller than the latency window must throttle throughput
	// (each credit is out for latency cycles before the commit returns it)
	// — but never deadlock or overfill.
	s2 := NewSystem()
	short := s2.NewLink("short", 2, latency)
	pushed, popped = 0, 0
	for c := int64(0); c < cycles; c++ {
		if short.CanPush() {
			short.Push(c, oneRecFlit(uint32(pushed)))
			pushed++
		}
		if !short.Empty() {
			short.Pop()
			popped++
		}
		short.commit(c)
	}
	if popped == 0 || popped >= cycles-latency {
		t.Fatalf("capacity-2 latency-%d link popped %d of %d: expected throttled but nonzero throughput", latency, popped, cycles)
	}
}

// spinner never finishes but keeps a link busy, so the runner exhausts its
// budget rather than declaring deadlock.
type spinner struct {
	out *Link
	n   int64
}

func (sp *spinner) Name() string         { return "spinner" }
func (sp *spinner) Done() bool           { return false }
func (sp *spinner) OutputLinks() []*Link { return []*Link{sp.out} }
func (sp *spinner) Tick(cycle int64) {
	if sp.out.CanPush() {
		sp.out.Push(cycle, oneRecFlit(uint32(sp.n)))
		sp.n++
	}
}

type drain struct{ in *Link }

func (d *drain) Name() string        { return "drain" }
func (d *drain) Done() bool          { return true }
func (d *drain) InputLinks() []*Link { return []*Link{d.in} }
func (d *drain) Tick(int64) {
	if !d.in.Empty() {
		d.in.Pop()
	}
}

// TestBudgetErrorTyped: budget exhaustion with live traffic is a
// *BudgetError carrying the budget, cycle, stuck components and the links
// still holding flits — distinct from *DeadlockError, which means no
// progress.
func TestBudgetErrorTyped(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("busy", 4, 1)
	s.Add(&spinner{out: l})
	s.Add(&drain{in: l})

	cycles, err := s.Run(50)
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T: %v", err, err)
	}
	var de *DeadlockError
	if errors.As(err, &de) {
		t.Fatal("budget exhaustion misreported as deadlock")
	}
	if be.Budget != 50 || cycles != 50 {
		t.Fatalf("budget=%d cycles=%d, want 50", be.Budget, cycles)
	}
	if len(be.Stuck) == 0 {
		t.Fatal("BudgetError did not name stuck components")
	}
	if len(be.Links) != 1 || be.Links[0].Name != "busy" {
		t.Fatalf("BudgetError links %v, want the busy link", be.Links)
	}
}

// TestGraceWindowFromLatencyBounds: the deadlock window includes declared
// component latency bounds. A component that legally stays silent for
// longer than the base grace must not be misreported as deadlocked.
type slowResponder struct {
	out     *Link
	release int64
	bound   int64
	done    bool
}

func (sr *slowResponder) Name() string                    { return "slow" }
func (sr *slowResponder) Done() bool                      { return sr.done }
func (sr *slowResponder) OutputLinks() []*Link            { return []*Link{sr.out} }
func (sr *slowResponder) WorstCaseInternalLatency() int64 { return sr.bound }
func (sr *slowResponder) Tick(cycle int64) {
	if !sr.done && cycle >= sr.release && sr.out.CanPush() {
		sr.out.Push(cycle, Flit{EOS: true})
		sr.done = true
	}
}

type eosSink struct {
	in  *Link
	eos bool
}

func (es *eosSink) Name() string        { return "eosSink" }
func (es *eosSink) Done() bool          { return es.eos }
func (es *eosSink) InputLinks() []*Link { return []*Link{es.in} }
func (es *eosSink) Tick(int64) {
	if !es.in.Empty() && es.in.Pop().EOS {
		es.eos = true
	}
}

func TestGraceWindowFromLatencyBounds(t *testing.T) {
	// Silent for 2000 cycles: beyond the 256-cycle base grace, within the
	// declared bound.
	s := NewSystem()
	l := s.NewLink("out", 1, 1)
	s.Add(&slowResponder{out: l, release: 2000, bound: 3000})
	s.Add(&eosSink{in: l})
	if _, err := s.Run(100_000); err != nil {
		t.Fatalf("legal silence within declared bound misreported: %v", err)
	}

	// Without the declared bound the same silence is (correctly) a deadlock.
	s2 := NewSystem()
	l2 := s2.NewLink("out", 1, 1)
	s2.Add(&slowResponder{out: l2, release: 2000, bound: 0})
	s2.Add(&eosSink{in: l2})
	_, err := s2.Run(100_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock without a latency bound, got %v", err)
	}
}
