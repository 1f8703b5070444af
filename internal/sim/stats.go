package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats is a named-counter set shared across a simulation. Components
// record microarchitectural events (bank conflicts, grants, stalls,
// compactions, DRAM row hits/misses) that the benchmark harness and tests
// read back to explain throughput numbers.
//
// The hot path is a Counter handle: components resolve their counter names
// once at construction and bump an atomic int64 per event — no per-tick map
// lookup, no string hashing, no interface boxing of deltas, and no lock:
// a bare atomic add is the entire cost. Increments are commutative, so
// final values are independent of tick order. Snapshot coherence is
// per-counter (each value is an atomic load); every harness in this
// repository snapshots at rest — after RunWith returns or between cycles —
// where per-counter atomicity is full coherence.
type Stats struct {
	mu       sync.RWMutex // guards the counters map (registration), not Add
	counters map[string]*Counter
}

// Counter is a handle to one named statistic. Obtain with Stats.Counter at
// construction time; Add is safe from concurrent goroutines.
type Counter struct {
	v int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	atomic.AddInt64(&c.v, delta)
}

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// NewStats returns an empty counter set.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*Counter)}
}

// Counter returns the handle for name, creating it at zero on first use.
func (s *Stats) Counter(name string) *Counter {
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	s.counters[name] = c
	return c
}

// Add increments counter name by delta (the by-name convenience for cold
// paths; hot paths should hold a Counter handle).
func (s *Stats) Add(name string, delta int64) {
	s.Counter(name).Add(delta)
}

// Get returns counter name (zero if never written).
func (s *Stats) Get(name string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.counters[name]; c != nil {
		return c.Value()
	}
	return 0
}

// Ratio returns num/den as a float, or 0 when den is zero.
func (s *Stats) Ratio(num, den string) float64 {
	d := s.Get(den)
	if d == 0 {
		return 0
	}
	return float64(s.Get(num)) / float64(d)
}

// Snapshot returns a copy of every counter. Each value is an atomic load;
// callers snapshot at rest (after a run or between cycles), where that is
// full coherence.
func (s *Stats) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.counters))
	// lint:maprange-ok — copying into a map; order cannot matter.
	for k, c := range s.counters {
		out[k] = atomic.LoadInt64(&c.v)
	}
	return out
}

// Names returns all counter names, sorted.
func (s *Stats) Names() []string {
	snap := s.Snapshot()
	out := make([]string, 0, len(snap))
	for k := range snap {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders all counters, one per line, sorted by name. The render
// works from a single coherent Snapshot, never from per-counter reads.
func (s *Stats) String() string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-40s %12d\n", k, snap[k])
	}
	return b.String()
}
