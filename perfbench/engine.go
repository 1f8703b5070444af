package main

import (
	"cmp"
	"slices"
	"time"

	"aurochs/internal/core"
	"aurochs/internal/queries"
)

// opNames are the queries.Engine operators, as the ledger names them.
var opNames = []string{"equijoin", "spatial", "window", "timerange", "groupcount", "sort", "predict"}

// opSpan accumulates one operator's spans over a pass of the nine queries.
type opSpan struct {
	host   time.Duration
	cycles float64
	calls  int
	inRows int
}

// engine wraps the simulator engine the queries run on. When spans is
// non-nil it records a span per operator call: host time, simulated cycles
// (Cost at the fabric clock) and input rows.
type engine struct {
	inner queries.Engine
	spans map[string]*opSpan
}

func (e *engine) record(op string, start time.Time, rows int, c queries.Cost) {
	if e.spans == nil {
		return
	}
	d := time.Since(start)
	s := e.spans[op]
	if s == nil {
		s = &opSpan{}
		e.spans[op] = s
	}
	s.host += d
	s.cycles += c.Seconds * core.ClockHz
	s.calls++
	s.inRows += rows
}

func (e *engine) Name() string { return e.inner.Name() }

// EquiJoin hands distinct-key sides to the engine sorted by key. Q6 builds
// both of its join sides by ranging over Go maps, whose order changes from
// run to run, and a join's simulated cost depends on input order. A side
// with distinct keys is a keyed set, so sorting it changes no result and
// makes the cost a function of the seed. Every other side keeps its order.
func (e *engine) EquiJoin(build, probe []queries.KV) ([]queries.Pair, queries.Cost, error) {
	build, probe = keyedSet(build), keyedSet(probe)
	start := time.Now()
	out, c, err := e.inner.EquiJoin(build, probe)
	e.record("equijoin", start, len(build)+len(probe), c)
	return out, c, err
}

func (e *engine) SpatialProbe(points []queries.Point, qs []queries.CircleQ) ([]queries.SPair, queries.Cost, error) {
	start := time.Now()
	out, c, err := e.inner.SpatialProbe(points, qs)
	e.record("spatial", start, len(points)+len(qs), c)
	return out, c, err
}

func (e *engine) WindowProbe(points []queries.Point, qs []queries.RectQ) ([]queries.SPair, queries.Cost, error) {
	start := time.Now()
	out, c, err := e.inner.WindowProbe(points, qs)
	e.record("window", start, len(points)+len(qs), c)
	return out, c, err
}

func (e *engine) TimeRange(entries []queries.KV, lo, hi uint32) ([]uint32, queries.Cost, error) {
	start := time.Now()
	out, c, err := e.inner.TimeRange(entries, lo, hi)
	e.record("timerange", start, len(entries), c)
	return out, c, err
}

func (e *engine) GroupCount(keys []uint32) (map[uint32]int64, queries.Cost, error) {
	start := time.Now()
	out, c, err := e.inner.GroupCount(keys)
	e.record("groupcount", start, len(keys), c)
	return out, c, err
}

func (e *engine) Sort(n, rowBytes int) (queries.Cost, error) {
	start := time.Now()
	c, err := e.inner.Sort(n, rowBytes)
	e.record("sort", start, n, c)
	return c, err
}

func (e *engine) Predict(n, flops int) (queries.Cost, error) {
	start := time.Now()
	c, err := e.inner.Predict(n, flops)
	e.record("predict", start, n, c)
	return c, err
}

// keyedSet returns kv sorted by key when its keys are distinct, and kv
// itself otherwise.
func keyedSet(kv []queries.KV) []queries.KV {
	byKey := func(a, b queries.KV) int { return cmp.Compare(a.Key, b.Key) }
	if slices.IsSortedFunc(kv, byKey) {
		return kv
	}
	s := slices.Clone(kv)
	slices.SortFunc(s, byKey)
	for i := 1; i < len(s); i++ {
		if s[i].Key == s[i-1].Key {
			return kv
		}
	}
	return s
}
