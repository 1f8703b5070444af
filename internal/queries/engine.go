package queries

import (
	"fmt"
	"time"
)

// Cost is an operator's modeled or measured runtime contribution.
type Cost struct {
	Seconds float64
}

// Add accumulates.
func (c *Cost) Add(o Cost) { c.Seconds += o.Seconds }

// Duration converts to a time.Duration.
func (c Cost) Duration() time.Duration { return time.Duration(c.Seconds * 1e9) }

// KV is a generic key → row-id pair fed to join and index operators. Vals
// are row indices into the caller's tables, so queries do payload lookups
// host-side while engines model the data movement.
type KV struct {
	Key uint32
	Val uint32
}

// Pair is one equi-join match.
type Pair struct {
	Key      uint32
	BuildVal uint32
	ProbeVal uint32
}

// Point is an indexed spatial object.
type Point struct {
	X, Y uint32
	ID   uint32
}

// CircleQ asks for all points within R of (X, Y); Tag identifies the probe.
type CircleQ struct {
	X, Y uint32
	R    uint32
	Tag  uint32
}

// RectQ asks for all points inside a rectangle.
type RectQ struct {
	MinX, MinY, MaxX, MaxY uint32
	Tag                    uint32
}

// SPair is one spatial match: point ID × probe tag.
type SPair struct {
	ID  uint32
	Tag uint32
}

// Engine abstracts the physical operators the nine queries are planned
// over. Every implementation must return identical functional results —
// the integration tests enforce it — and differ only in Cost.
//
// RunAll may call an engine's operators from several goroutines at once
// (see RunAll for the engines it keeps serial), so an implementation must
// not share mutable state between calls without synchronising it.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// EquiJoin returns every (build, probe) pair with equal keys.
	EquiJoin(build, probe []KV) ([]Pair, Cost, error)
	// SpatialProbe returns, per circle query, the points within range
	// (exact Euclidean distance, inclusive).
	SpatialProbe(points []Point, queries []CircleQ) ([]SPair, Cost, error)
	// WindowProbe returns, per rectangle query, the points inside.
	WindowProbe(points []Point, queries []RectQ) ([]SPair, Cost, error)
	// TimeRange returns the vals of entries with lo <= key <= hi from a
	// pre-built ordered index over entries (index build is ingest work,
	// not query work, and is not charged).
	TimeRange(entries []KV, lo, hi uint32) ([]uint32, Cost, error)
	// GroupCount counts occurrences per key (hash aggregation).
	GroupCount(keys []uint32) (map[uint32]int64, Cost, error)
	// Sort charges an order-by over n rows of rowBytes each.
	Sort(n int, rowBytes int) (Cost, error)
	// Predict charges n model inferences of flops each.
	Predict(n int, flops int) (Cost, error)
}

// inCircle is the exact predicate every engine's SpatialProbe must apply.
func inCircle(p Point, q CircleQ) bool {
	dx := int64(p.X) - int64(q.X)
	dy := int64(p.Y) - int64(q.Y)
	return dx*dx+dy*dy <= int64(q.R)*int64(q.R)
}

// circleRect is the bounding rectangle of a circle query, clamped to grid.
func circleRect(q CircleQ) RectQ {
	var r RectQ
	if q.X > q.R {
		r.MinX = q.X - q.R
	}
	if q.Y > q.R {
		r.MinY = q.Y - q.R
	}
	r.MaxX = q.X + q.R
	r.MaxY = q.Y + q.R
	if r.MaxX >= MaxCoord {
		r.MaxX = MaxCoord - 1
	}
	if r.MaxY >= MaxCoord {
		r.MaxY = MaxCoord - 1
	}
	r.Tag = q.Tag
	return r
}

// QueryResult is one query's outcome on one engine.
type QueryResult struct {
	Engine string
	Query  string
	// Fingerprint summarizes the functional result for cross-engine
	// comparison (order-independent).
	Fingerprint uint64
	// Rows is the result cardinality.
	Rows int
	// Cost is the summed operator cost.
	Cost Cost
}

func (r QueryResult) String() string {
	return fmt.Sprintf("%s/%s: rows=%d time=%v", r.Query, r.Engine, r.Rows, r.Cost.Duration())
}

// mix folds a value into an order-independent fingerprint.
func mix(fp *uint64, vals ...uint64) {
	var h uint64 = 1469598103934665603
	for _, v := range vals {
		h ^= v
		h *= 1099511628211
	}
	*fp += h // commutative combine: order independent
}
