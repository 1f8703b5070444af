package sim

import (
	"errors"
	"testing"

	"aurochs/internal/record"
)

// sleeper emits `total` flits, one every `period` cycles, sleeping between
// emissions on a WakeHint timer — the well-behaved event-driven citizen.
type sleeper struct {
	name   string
	out    *Link
	next   int64
	period int64
	sent   int
	total  int
}

func (s *sleeper) Name() string         { return s.name }
func (s *sleeper) OutputLinks() []*Link { return []*Link{s.out} }
func (s *sleeper) Done() bool           { return s.sent == s.total }
func (s *sleeper) Idle(cycle int64) bool {
	return s.sent == s.total || cycle < s.next || !s.out.CanPush()
}
func (s *sleeper) WakeHint(cycle int64) int64 {
	if s.sent == s.total || s.next <= cycle {
		return WakeNever // done, or waiting on link credit only
	}
	return s.next
}
func (s *sleeper) WorstCaseInternalLatency() int64 { return s.period }
func (s *sleeper) Tick(cycle int64) {
	if s.sent < s.total && cycle >= s.next && s.out.CanPush() {
		v := s.out.StageVec(cycle)
		v.Push(record.Make(uint32(s.sent)))
		s.sent++
		s.next = cycle + s.period
	}
}

// drain consumes everything; purely link-driven.
type pulseDrain struct {
	name string
	in   *Link
	got  int
	need int
}

func (d *pulseDrain) Name() string         { return d.name }
func (d *pulseDrain) InputLinks() []*Link  { return []*Link{d.in} }
func (d *pulseDrain) Done() bool           { return d.got == d.need }
func (d *pulseDrain) Idle(int64) bool      { return d.in.Empty() }
func (d *pulseDrain) WakeHint(int64) int64 { return WakeNever }
func (d *pulseDrain) Tick(int64) {
	for !d.in.Empty() {
		f := d.in.Peek()
		d.got += f.Vec.Count()
		d.in.Drop()
	}
}

// stuckTimer claims Idle until an internal release cycle but registers no
// wake: no ports, no shared state, WakeHint answers WakeNever. The event
// scheduler puts it to sleep on cycle 0 and never examines it again — the
// contract breach VerifyWakeContract exists to catch.
type stuckTimer struct {
	release int64
	fired   bool
}

func (b *stuckTimer) Name() string          { return "stuck-timer" }
func (b *stuckTimer) Done() bool            { return b.fired }
func (b *stuckTimer) Idle(cycle int64) bool { return !b.fired && cycle < b.release }
func (b *stuckTimer) WakeHint(int64) int64  { return WakeNever }
func (b *stuckTimer) Tick(cycle int64) {
	if cycle >= b.release {
		b.fired = true
	}
}

func wirePulsePipeline(period int64, total int) (*System, *pulseDrain) {
	sys := NewSystem()
	l := sys.NewLink("pulse", 2, 1)
	sys.Add(&sleeper{name: "pulser", out: l, period: period, total: total})
	d := &pulseDrain{name: "drain", in: l, need: total}
	sys.Add(d)
	return sys, d
}

func TestVerifyWakeContractClean(t *testing.T) {
	sys, d := wirePulsePipeline(17, 12)
	if err := VerifyWakeContract(sys, 4096); err != nil {
		t.Fatalf("well-behaved pipeline violates the wake contract: %v", err)
	}
	if d.got != d.need {
		t.Fatalf("drained %d records; want %d", d.got, d.need)
	}
}

func TestVerifyWakeContractCatchesMissingRegistration(t *testing.T) {
	sys := NewSystem()
	sys.Add(&stuckTimer{release: 50})
	err := VerifyWakeContract(sys, 4096)
	var wv *WakeViolation
	if !errors.As(err, &wv) {
		t.Fatalf("missing wake registration not caught; err = %v", err)
	}
	if wv.Component != "stuck-timer" {
		t.Fatalf("violation blamed %q; want stuck-timer", wv.Component)
	}
}

// The real kernel must stall on the same breach VerifyWakeContract reports:
// the stuck component sleeps forever and the run deadlocks rather than
// silently diverging from the polling kernel.
func TestWakeKernelStallsOnMissingRegistration(t *testing.T) {
	sys := NewSystem()
	sys.Add(&stuckTimer{release: 50})
	_, err := sys.Run(100000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError from unregistered wake, got %v", err)
	}
	// The same system under NoIdleSkip (the polling behavior) completes.
	sys2 := NewSystem()
	sys2.Add(&stuckTimer{release: 50})
	if _, err := sys2.RunWith(100000, RunOptions{NoIdleSkip: true}); err != nil {
		t.Fatalf("polling run should complete: %v", err)
	}
}

// Event-driven and polling runs of the same pipeline must agree exactly —
// cycle count and records delivered.
func TestWakeKernelMatchesPollingKernel(t *testing.T) {
	runOnce := func(opt RunOptions) (int64, int) {
		sys, d := wirePulsePipeline(23, 40)
		cycles, err := sys.RunWith(1<<20, opt)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return cycles, d.got
	}
	evCycles, evGot := runOnce(RunOptions{})
	poCycles, poGot := runOnce(RunOptions{NoIdleSkip: true})
	if evCycles != poCycles || evGot != poGot {
		t.Fatalf("kernels diverge: event (%d cycles, %d recs) vs polling (%d cycles, %d recs)",
			evCycles, evGot, poCycles, poGot)
	}
}

// Timer-wheel coverage: hints beyond the wheel horizon must land in the far
// list and still fire exactly on time.
func TestWakeTimerBeyondWheelHorizon(t *testing.T) {
	sys, d := wirePulsePipeline(wheelSlots+137, 3)
	cycles, err := sys.Run(1 << 22)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.got != d.need {
		t.Fatalf("drained %d records; want %d", d.got, d.need)
	}
	want := int64(2*(wheelSlots+137)) + 2 // third pulse fires then arrives
	if cycles > want+8 {
		t.Fatalf("far timers fired late: %d cycles for 3 pulses (want ~%d)", cycles, want)
	}
}
