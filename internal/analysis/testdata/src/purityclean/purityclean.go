// Package purityclean is an analysis fixture: every pattern here is the
// sanctioned form of something the tickpurity analyzer would otherwise
// flag, so the whole package must produce zero findings.
package purityclean

import (
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// Config is read-only after construction.
type Config struct {
	Depth int
	Label string
}

// Tile observes its link and configuration purely; scratch is mutated only
// by Tick.
type Tile struct {
	name    string
	in      *sim.Link
	cfg     *Config
	scratch map[uint32]uint32
	pos     int
	eos     bool
}

// NewTile is the sanctioned constructor shape.
func NewTile(name string, in *sim.Link, cfg *Config) *Tile {
	return &Tile{name: name, in: in, cfg: cfg, scratch: make(map[uint32]uint32)}
}

// Name implements the component shape.
func (t *Tile) Name() string { return t.name }

// Tick implements the component shape.
func (t *Tile) Tick(cycle int64) {
	if t.in.Empty() {
		return
	}
	f := t.in.Pop()
	if f.EOS {
		t.eos = true
		return
	}
	t.pos++
	t.scratch[uint32(t.pos)] = uint32(cycle)
}

// Done implements the component shape, purely.
func (t *Tile) Done() bool { return t.eos }

// InputLinks implements sim.InputPorts.
func (t *Tile) InputLinks() []*sim.Link { return []*sim.Link{t.in} }

// Idle is pure: link observations, field reads, and a pure same-package
// helper.
func (t *Tile) Idle(cycle int64) bool {
	if t.eos {
		return true
	}
	return t.in.Empty() && quiescent(t.pos, t.cfg.Depth)
}

// quiescent is a pure helper the recursive checker must accept.
func quiescent(pos, depth int) bool {
	limit := depth
	if limit < 1 {
		limit = 1
	}
	return pos >= limit
}

// Empty is a sanctioned impurity: the effect is invisible to results, and
// the waiver documents it.
//
// lint:tickpure-ok — refreshes a cache that never reaches simulation state.
func (t *Tile) Empty() bool {
	t.pos = t.pos + 0
	return t.in.Empty()
}

// Typed holds a record schema handed in by its constructor.
type Typed struct {
	name   string
	schema *record.Schema
	seen   int
}

// NewTyped stores the caller's schema.
func NewTyped(name string, schema *record.Schema) *Typed {
	return &Typed{name: name, schema: schema}
}

// Name implements the component shape.
func (t *Typed) Name() string { return t.name }

// Tick implements the component shape.
func (t *Typed) Tick(int64) { t.seen += t.schema.Len() }

// Done implements the component shape, purely.
func (t *Typed) Done() bool { return t.seen > 0 }
