package sim

import (
	"testing"

	"aurochs/internal/record"
)

// pulser emits `total` flits, one every `period` cycles, and answers Idle
// between emissions: its idleness ends with the passage of time alone.
type pulser struct {
	out    *Link
	next   int64
	period int64
	sent   int
	total  int
}

func (p *pulser) Name() string         { return "pulser" }
func (p *pulser) OutputLinks() []*Link { return []*Link{p.out} }
func (p *pulser) Done() bool           { return p.sent == p.total }
func (p *pulser) Idle(cycle int64) bool {
	return p.sent == p.total || cycle < p.next || !p.out.CanPush()
}
func (p *pulser) WorstCaseInternalLatency() int64 { return p.period }
func (p *pulser) Tick(cycle int64) {
	if p.sent < p.total && cycle >= p.next && p.out.CanPush() {
		v := p.out.StageVec(cycle)
		v.Push(record.Make(uint32(p.sent)))
		p.sent++
		p.next = cycle + p.period
	}
}

// pulseDrain consumes everything; its idleness is purely link-driven.
type pulseDrain struct {
	in   *Link
	got  int
	need int
}

func (d *pulseDrain) Name() string        { return "drain" }
func (d *pulseDrain) InputLinks() []*Link { return []*Link{d.in} }
func (d *pulseDrain) Done() bool          { return d.got == d.need }
func (d *pulseDrain) Idle(int64) bool     { return d.in.Empty() }
func (d *pulseDrain) Tick(int64) {
	for !d.in.Empty() {
		f := d.in.Peek()
		d.got += f.Vec.Count()
		d.in.Drop()
	}
}

// timer has no ports at all: it idles until an internal release cycle,
// then finishes.
type timer struct {
	release int64
	fired   bool
}

func (b *timer) Name() string          { return "timer" }
func (b *timer) Done() bool            { return b.fired }
func (b *timer) Idle(cycle int64) bool { return !b.fired && cycle < b.release }
func (b *timer) Tick(cycle int64) {
	if cycle >= b.release {
		b.fired = true
	}
}

func wirePulsePipeline(period int64, total int) (*System, *pulseDrain) {
	sys := NewSystem()
	l := sys.NewLink("pulse", 2, 1)
	sys.Add(&pulser{out: l, period: period, total: total})
	d := &pulseDrain{in: l, need: total}
	sys.Add(d)
	sys.Add(&timer{release: 50})
	return sys, d
}

// TestVerifyIdleContractPulsePipeline: time-driven and link-driven Idle
// answers both pass the conformance harness, and the pipeline drains.
func TestVerifyIdleContractPulsePipeline(t *testing.T) {
	sys, d := wirePulsePipeline(17, 12)
	if err := VerifyIdleContract(sys, 4096); err != nil {
		t.Fatalf("well-behaved pipeline violates the idle contract: %v", err)
	}
	if d.got != d.need {
		t.Fatalf("drained %d records; want %d", d.got, d.need)
	}
}

// TestIdleSkipMatchesPolling: skipping idle components and ticking every
// component every cycle (RunOptions.NoIdleSkip) agree exactly — cycle
// count and records delivered — including for components whose Idle
// answer flips with time alone.
func TestIdleSkipMatchesPolling(t *testing.T) {
	runOnce := func(opt RunOptions) (int64, int) {
		sys, d := wirePulsePipeline(23, 40)
		cycles, err := sys.RunWith(1<<20, opt)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return cycles, d.got
	}
	skipCycles, skipGot := runOnce(RunOptions{})
	pollCycles, pollGot := runOnce(RunOptions{NoIdleSkip: true})
	if skipCycles != pollCycles || skipGot != pollGot {
		t.Fatalf("runs diverge: idle-skip (%d cycles, %d recs) vs polling (%d cycles, %d recs)",
			skipCycles, skipGot, pollCycles, pollGot)
	}
}
