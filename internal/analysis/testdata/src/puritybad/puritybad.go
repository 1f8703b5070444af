// Package puritybad is an analysis fixture: a simulator component whose
// observation methods break the tickpurity contract. Every violation here
// is counted by TestPurityBadFixture; update both together.
package puritybad

// Table is mutable heap state a component can reach.
type Table struct {
	rows map[uint32][]uint32
}

// Lookup is an impure helper (memoizing) used from CanPush.
func (t *Table) Lookup(k uint32) []uint32 {
	if t.rows == nil {
		t.rows = make(map[uint32][]uint32)
	}
	return t.rows[k]
}

// Walker is a component (Name/Tick/Done) with three impure observation
// methods.
type Walker struct {
	name  string
	tbl   *Table
	pos   int
	done  chan struct{}
	calls int
}

// NewWalker builds a walker over a caller's table.
func NewWalker(name string, tbl *Table) *Walker {
	return &Walker{name: name, tbl: tbl, done: make(chan struct{}, 1)}
}

// Name implements the component shape.
func (w *Walker) Name() string { return w.name }

// Tick implements the component shape; mutation is fine here.
func (w *Walker) Tick(cycle int64) {
	w.pos++
}

// Done is impure: it signals on a channel.
func (w *Walker) Done() bool {
	select {
	case w.done <- struct{}{}:
	default:
	}
	return w.pos > 10
}

// Idle is impure: it counts its own calls, which the idle-skip would turn
// into divergent state between skipping and polling runs.
func (w *Walker) Idle(cycle int64) bool {
	w.calls++
	return w.pos > 5
}

// CanPush is impure through a helper: Lookup memoizes into the table.
func (w *Walker) CanPush() bool {
	return len(w.tbl.Lookup(uint32(w.pos))) == 0
}
