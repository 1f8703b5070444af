package ring

import "testing"

func TestFIFOOrderAcrossWraps(t *testing.T) {
	var q Queue[int]
	next := 0 // next value to pop
	push := 0 // next value to push
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(push)
			push++
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != next {
				t.Fatalf("pop=%d want %d", got, next)
			}
			next++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got != next {
			t.Fatalf("drain pop=%d want %d", got, next)
		}
		next++
	}
	if next != push {
		t.Fatalf("drained %d, pushed %d", next, push)
	}
}

func TestPushRefAndAt(t *testing.T) {
	var q Queue[[4]int]
	for i := 0; i < 10; i++ {
		p := q.PushRef()
		p[0] = i
	}
	for i := 0; i < 10; i++ {
		if q.At(i)[0] != i {
			t.Fatalf("At(%d)=%v", i, q.At(i))
		}
	}
	q.DropN(3)
	if q.Len() != 7 || q.Front()[0] != 3 {
		t.Fatalf("after DropN: len=%d front=%v", q.Len(), q.Front())
	}
	q.Reset()
	if !q.Empty() {
		t.Fatal("Reset did not empty queue")
	}
}

func TestPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue must panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

// TestSteadyStateAllocFree pins the reason this package exists: once warm,
// push/pop cycles do not touch the allocator.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	q.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			q.Push(i)
		}
		for i := 0; i < 32; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f/op, want 0", allocs)
	}
}

// TestGrowWhileWrapped: doubling with the head mid-buffer must unwrap the
// ring — the element order after a wrapped grow is the original FIFO order.
func TestGrowWhileWrapped(t *testing.T) {
	var q Queue[int]
	// Fill to the initial capacity of 8, drop half, refill past the wrap
	// point so head > 0 and the ring is split across the boundary.
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	q.DropN(5) // head=5, occupied slots wrap: [5 6 7] + room for 5 more
	for i := 8; i < 13; i++ {
		q.Push(i)
	}
	// Next push forces grow() while wrapped.
	q.Push(13)
	for want := 5; want <= 13; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("after wrapped grow: pop=%d want %d", got, want)
		}
	}
	if !q.Empty() {
		t.Fatalf("queue not drained, len=%d", q.Len())
	}
}

// TestFullEmptyTransitions: the ambiguous states — completely full and
// completely empty at the same head position — are distinguished correctly
// through repeated fill/drain cycles at exact capacity.
func TestFullEmptyTransitions(t *testing.T) {
	var q Queue[int]
	q.Push(0)
	q.Pop()
	cap0 := len(q.buf)
	if cap0 == 0 {
		t.Fatal("expected warm backing buffer")
	}
	for round := 0; round < 3*cap0; round++ {
		if !q.Empty() || q.Len() != 0 {
			t.Fatalf("round %d: queue not empty at start", round)
		}
		for i := 0; i < cap0; i++ {
			q.Push(round*cap0 + i)
		}
		if q.Len() != cap0 || q.Empty() {
			t.Fatalf("round %d: full queue misreported len=%d", round, q.Len())
		}
		if len(q.buf) != cap0 {
			t.Fatalf("round %d: fill to exact capacity grew the buffer", round)
		}
		for i := 0; i < cap0; i++ {
			if got := q.Pop(); got != round*cap0+i {
				t.Fatalf("round %d: pop=%d want %d", round, got, round*cap0+i)
			}
		}
	}
}

// TestDrainRefillPeekStability: under repeated partial drain-refill cycles,
// Front/At observations, Drop, and PushRef stay mutually consistent — the
// pattern every simulator consumer (peek, decide, drop or keep) relies on.
func TestDrainRefillPeekStability(t *testing.T) {
	var q Queue[[2]int]
	next, push := 0, 0
	for round := 0; round < 200; round++ {
		// Refill with in-place construction.
		for i := 0; i < 3; i++ {
			s := q.PushRef()
			s[0], s[1] = push, push*2
			push++
		}
		// Peek every element before touching the front: At must agree with
		// eventual Pop order.
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i)[0]; got != next+i {
				t.Fatalf("round %d: At(%d)=%d want %d", round, i, got, next+i)
			}
		}
		// Drain a different amount than we pushed so head sweeps the ring.
		drop := 2
		if round%5 == 0 {
			drop = 3
		}
		for i := 0; i < drop && !q.Empty(); i++ {
			f := q.Front()
			if f[0] != next || f[1] != next*2 {
				t.Fatalf("round %d: front=%v want [%d %d]", round, *f, next, next*2)
			}
			q.Drop()
			next++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got[0] != next {
			t.Fatalf("drain: pop=%d want %d", got[0], next)
		}
		next++
	}
	if next != push {
		t.Fatalf("drained %d, pushed %d", next, push)
	}
}

// TestDropClearsPointers: dropping an element of a pointer-bearing type
// zeroes the vacated slot so the queue does not pin garbage, while a
// pointer-free type skips the clear (the slot keeps its remains until
// PushRefDirty reuses it).
func TestDropClearsPointers(t *testing.T) {
	var qp Queue[*int]
	v := new(int)
	qp.Push(v)
	qp.Drop()
	if !qp.mustClear() {
		t.Fatal("pointer element type must clear on drop")
	}
	if got := qp.buf[0]; got != nil {
		t.Fatalf("dropped slot still holds %p", got)
	}

	var qi Queue[int]
	qi.Push(42)
	qi.Drop()
	if qi.mustClear() {
		t.Fatal("pointer-free element type must skip clearing")
	}
	if got := qi.buf[0]; got != 42 {
		t.Fatalf("pointer-free drop zeroed the slot: got %d", got)
	}
	// The dirty remains are invisible through the API: PushRefDirty hands the
	// slot back for full overwrite.
	*qi.PushRefDirty() = 7
	if got := qi.Pop(); got != 7 {
		t.Fatalf("reused slot pop=%d want 7", got)
	}
}

// TestPoolRecyclesEmptyQueuesOfItsSize: Put takes only an empty queue's
// array of the pool's size, and Get hands it to the next queue, which
// then works as a fresh one.
func TestPoolRecyclesEmptyQueuesOfItsSize(t *testing.T) {
	p := NewPool[int](4)
	var a Queue[int]
	p.Get(&a)
	id := a.BackingID()
	a.Push(1)
	p.Put(&a)
	if a.BackingID() != id {
		t.Fatal("Put took a non-empty queue's array")
	}
	a.Pop()
	p.Put(&a)
	if a.BackingID() != nil {
		t.Fatal("Put left an empty queue its array")
	}

	var big Queue[int]
	big.Reserve(8)
	p.Put(&big)
	if big.BackingID() == nil {
		t.Fatal("Put took an array of another size")
	}

	var b Queue[int]
	p.Get(&b)
	if b.BackingID() != id {
		t.Fatal("Get did not hand out the recycled array")
	}
	for i := 0; i < 6; i++ {
		b.Push(i)
	}
	for i := 0; i < 6; i++ {
		if got := b.Pop(); got != i {
			t.Fatalf("pop=%d want %d", got, i)
		}
	}
	a.Push(7) // a queue used after Put grows a new array
	if a.Pop() != 7 || a.BackingID() == id {
		t.Fatal("a queue used after Put shares the recycled array")
	}
}

// TestPopIntoAcrossWrap: PopInto moves the front elements in FIFO order
// whether or not they straddle the end of the backing array, and leaves
// the rest queued.
func TestPopIntoAcrossWrap(t *testing.T) {
	var q Queue[int]
	q.Reserve(8)
	next, push := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 5; i++ {
			q.Push(push)
			push++
		}
		var dst [3]int
		if n := q.PopInto(dst[:]); n != 3 {
			t.Fatalf("round %d: PopInto moved %d, want 3", round, n)
		}
		for _, v := range dst {
			if v != next {
				t.Fatalf("round %d: popped %d, want %d", round, v, next)
			}
			next++
		}
		if q.Len() != push-next {
			t.Fatalf("round %d: Len=%d, want %d", round, q.Len(), push-next)
		}
		if q.Len() > 4 {
			for q.Len() > 2 {
				if got := q.Pop(); got != next {
					t.Fatalf("round %d: Pop=%d, want %d", round, got, next)
				}
				next++
			}
		}
	}
}

// TestPopIntoShortQueue: asking for more than Len moves only what is
// queued and empties the queue; an empty queue moves nothing.
func TestPopIntoShortQueue(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 3; i++ {
		q.Push(10 + i)
	}
	dst := make([]int, 16)
	if n := q.PopInto(dst); n != 3 || !q.Empty() {
		t.Fatalf("PopInto moved %d, Len=%d; want 3 and empty", n, q.Len())
	}
	for i := 0; i < 3; i++ {
		if dst[i] != 10+i {
			t.Fatalf("dst[%d]=%d, want %d", i, dst[i], 10+i)
		}
	}
	if n := q.PopInto(dst); n != 0 {
		t.Fatalf("PopInto on an empty queue moved %d", n)
	}
	if n := q.PopInto(nil); n != 0 {
		t.Fatalf("PopInto into nil moved %d", n)
	}
}

// TestPopIntoClearsPointers: like Drop, PopInto zeroes the vacated slots
// of a pointer-bearing type on both sides of the wrap.
func TestPopIntoClearsPointers(t *testing.T) {
	var q Queue[*int]
	q.Reserve(8)
	for i := 0; i < 6; i++ {
		q.Push(new(int))
	}
	q.DropN(6)
	for i := 0; i < 5; i++ { // slots 6, 7, 0, 1, 2
		q.Push(new(int))
	}
	var dst [4]*int
	if n := q.PopInto(dst[:]); n != 4 {
		t.Fatalf("PopInto moved %d, want 4", n)
	}
	for i, p := range dst {
		if p == nil {
			t.Fatalf("dst[%d] is nil", i)
		}
	}
	for _, s := range []int{6, 7, 0, 1} {
		if q.buf[s] != nil {
			t.Fatalf("vacated slot %d still holds %p", s, q.buf[s])
		}
	}
	if q.buf[2] == nil || q.Len() != 1 {
		t.Fatalf("the remaining element was lost: Len=%d", q.Len())
	}
}
