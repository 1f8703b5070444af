package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"aurochs/internal/record"
)

func flit(v uint32) Flit {
	var vec record.Vector
	vec.Push(record.Make(v))
	return Flit{Vec: vec}
}

func TestLinkRegisteredLatency(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("l", 4, 1)
	l.Push(0, flit(42))
	if !l.Empty() {
		t.Fatal("push must not be visible in the same cycle")
	}
	l.commit(0)
	if l.Empty() {
		t.Fatal("latency-1 push must be visible after commit")
	}
	f := l.Pop()
	if got := f.Vec.Lane[0].Get(0); got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestLinkMultiCycleLatency(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("l", 4, 3)
	l.Push(0, flit(1))
	for c := int64(0); c < 2; c++ {
		l.commit(c)
		if !l.Empty() {
			t.Fatalf("cycle %d: flit arrived early", c)
		}
	}
	l.commit(2)
	if l.Empty() {
		t.Fatal("flit should arrive after 3 cycles")
	}
}

func TestLinkCapacityAndOrder(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("l", 2, 1)
	l.Push(0, flit(1))
	l.Push(0, flit(2))
	if l.CanPush() {
		t.Fatal("capacity 2 link should refuse a third push")
	}
	defer func() {
		if recover() == nil {
			t.Error("push to full link must panic")
		}
	}()
	l.Push(0, flit(3))
}

func TestLinkFIFOOrder(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("l", 8, 1)
	for i := uint32(0); i < 4; i++ {
		l.Push(int64(i), flit(i))
		l.commit(int64(i))
	}
	for i := uint32(0); i < 4; i++ {
		f := l.Pop()
		if got := f.Vec.Lane[0].Get(0); got != i {
			t.Fatalf("pop %d: got %d", i, got)
		}
	}
}

// producer/consumer pair used by the system tests.
type producer struct {
	out  *Link
	n    uint32
	sent uint32
	eos  bool
}

func (p *producer) Name() string { return "prod" }
func (p *producer) Done() bool   { return p.eos }
func (p *producer) Tick(c int64) {
	if p.eos || !p.out.CanPush() {
		return
	}
	if p.sent < p.n {
		p.out.Push(c, flit(p.sent))
		p.sent++
		return
	}
	p.out.Push(c, Flit{EOS: true})
	p.eos = true
}

type consumer struct {
	in   *Link
	got  []uint32
	eos  bool
	slow bool
}

func (cn *consumer) Name() string { return "cons" }
func (cn *consumer) Done() bool   { return cn.eos }
func (cn *consumer) Tick(c int64) {
	if cn.slow && c%3 != 0 {
		return
	}
	if cn.in.Empty() {
		return
	}
	f := cn.in.Pop()
	if f.EOS {
		cn.eos = true
		return
	}
	cn.got = append(cn.got, f.Vec.Lane[0].Get(0))
}

func TestSystemRunDrains(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("pc", 2, 1)
	p := &producer{out: l, n: 100}
	c := &consumer{in: l}
	s.Add(p)
	s.Add(c)
	cycles, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.got) != 100 {
		t.Fatalf("consumed %d, want 100", len(c.got))
	}
	for i, v := range c.got {
		if v != uint32(i) {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
	if cycles < 100 {
		t.Errorf("cycles=%d: cannot deliver 100 flits in under 100 cycles", cycles)
	}
}

func TestSystemBackpressure(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("pc", 2, 1)
	p := &producer{out: l, n: 30}
	c := &consumer{in: l, slow: true}
	s.Add(p)
	s.Add(c)
	if _, err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(c.got) != 30 {
		t.Fatalf("consumed %d, want 30", len(c.got))
	}
}

// stuckComp never finishes: the runner must report deadlock, not hang.
type stuckComp struct{}

func (stuckComp) Name() string { return "stuck" }
func (stuckComp) Done() bool   { return false }
func (stuckComp) Tick(int64)   {}

func TestDeadlockDetection(t *testing.T) {
	s := NewSystem()
	s.Add(stuckComp{})
	_, err := s.Run(100_000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Stuck) != 1 || dl.Stuck[0] != "stuck" {
		t.Errorf("stuck list: %v", dl.Stuck)
	}
}

// TestDeadlockErrorShowsLinkState: a deadlock names every link still
// holding flits with its visible flits, in-flight flits and producer
// credits, so a saturated ring reads as visible=capacity, credits=0
// without a debugger; drained links are left out.
func TestDeadlockErrorShowsLinkState(t *testing.T) {
	s := NewSystem()
	full := s.NewLink("full", 3, 1)
	s.NewLink("empty", 2, 1)
	s.Add(&producer{out: full, n: 10})
	s.Add(stuckComp{})
	_, err := s.Run(100_000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	want := []LinkState{{Name: "full", Visible: 3, InFlight: 0, Credits: 0}}
	if !reflect.DeepEqual(dl.Links, want) {
		t.Errorf("links %v, want %v", dl.Links, want)
	}
	if msg := err.Error(); !strings.Contains(msg, "full visible=3 inflight=0 credits=0") {
		t.Errorf("error text does not show the link state: %s", msg)
	}
}

func TestCycleBudget(t *testing.T) {
	s := NewSystem()
	l := s.NewLink("pc", 2, 1)
	p := &producer{out: l, n: 1 << 30}
	c := &consumer{in: l}
	s.Add(p)
	s.Add(c)
	_, err := s.Run(50)
	if err == nil {
		t.Fatal("expected budget exhaustion error")
	}
}

func TestStats(t *testing.T) {
	st := NewStats()
	st.Add("a", 3)
	st.Add("a", 4)
	st.Add("b", 2)
	if st.Get("a") != 7 {
		t.Errorf("a=%d", st.Get("a"))
	}
	if r := st.Ratio("b", "a"); r < 0.28 || r > 0.29 {
		t.Errorf("ratio=%f", r)
	}
	if st.Ratio("a", "zero") != 0 {
		t.Error("ratio with zero denominator must be 0")
	}
	if names := st.Names(); len(names) != 2 || names[0] != "a" {
		t.Errorf("names=%v", names)
	}
}
