// Package allocbad is an analysis fixture: a component whose Tick reaches
// every class of allocation site the hotalloc prover flags. Each violation
// is counted by TestAllocBadFixture; update both together. This package is
// also a CI negative fixture — the workflow runs aurochs-vet -allocs on it
// and requires a failing exit.
package allocbad

import "fmt"

// pair is a local composite whose address escapes below.
type pair struct {
	a, b int
}

// beat is a flit-sized value: 16 lanes of 13 words plus a mask, the shape
// of record.Vector.
type beat struct {
	lane [16][13]uint32
	mask uint16
}

// live is a read-only predicate with a value receiver: every call copies
// the whole beat onto the stack, though it reads two bytes of it.
func (b beat) live(i int) bool { return b.mask&(1<<uint(i)) != 0 }

// Hog allocates on its per-cycle path in every way Go hides in plain
// syntax.
type Hog struct {
	buf  []int
	m    map[int]int
	name string
	eos  bool
	cur  beat
}

func (h *Hog) Name() string { return "allocbad" }

func (h *Hog) Done() bool { return h.eos }

func (h *Hog) Tick(cycle int64) {
	h.buf = append(h.buf, int(cycle)) // FINDING: append growth
	h.m[int(cycle)] = 1               // FINDING: map bucket allocation
	s := make([]int, 8)               // FINDING: make
	_ = s
	p := &pair{a: 1} // FINDING: escaping composite literal
	h.sink(p)
	h.call(func() { h.eos = true }) // FINDING: closure capture cell
	b := any(cycle)                 // FINDING: interface boxing
	h.keep(b)
	lbl := fmt.Sprintf("c%d", cycle) // FINDING: fmt formats into the heap
	_ = lbl
	msg := h.name + "!" // FINDING: non-constant string concatenation
	_ = msg
	if h.cur.live(0) { // FINDING: hot-copy of an 836-byte value receiver
		h.eos = true
	}
}

// sink receives the escaping pointer; its own body is allocation-free.
func (h *Hog) sink(p *pair) {
	h.buf = h.buf[:0]
	_ = p
}

// call invokes a function value — the call itself is exempt (datapath
// closures are covered by the runtime gates); building the closure above is
// the finding.
func (h *Hog) call(f func()) {
	f()
}

// keep swallows an already-boxed value.
func (h *Hog) keep(v any) {
	_ = v
}
