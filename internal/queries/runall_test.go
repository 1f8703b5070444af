package queries

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// runSerial is RunAll's serial loop: the queries in All() order, stopping
// at the first error.
func runSerial(e Engine, d *Dataset) ([]QueryResult, error) {
	var out []QueryResult
	for _, q := range All() {
		r, err := q.Run(e, d)
		if err != nil {
			return out, fmt.Errorf("%s on %s: %w", q.Name, e.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// sameResults compares two result lists field by field, costs by their
// bits.
func sameResults(t *testing.T, what string, got, want []QueryResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, serial loop %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query != w.Query || g.Engine != w.Engine || g.Fingerprint != w.Fingerprint || g.Rows != w.Rows ||
			math.Float64bits(g.Cost.Seconds) != math.Float64bits(w.Cost.Seconds) {
			t.Errorf("%s: result %d is %s/%s fp %x rows %d cost %v, serial loop %s/%s fp %x rows %d cost %v",
				what, i, g.Query, g.Engine, g.Fingerprint, g.Rows, g.Cost.Seconds,
				w.Query, w.Engine, w.Fingerprint, w.Rows, w.Cost.Seconds)
		}
	}
}

// TestRunAllConcurrentMatchesSerial: RunAll fans the queries out over
// goroutines on the fabric engine, and every result — fingerprint, rows and
// the bits of the simulated cost — equals the serial loop's, in All()
// order.
func TestRunAllConcurrentMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	for _, seed := range []int64{1, 7} {
		d := Generate(SmallScale(), seed)
		want, err := runSerial(NewAurochs(4), d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunAll(NewAurochs(4), d)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// TestRunAllDispatchOrder: RunAll's dispatch order is a permutation of
// All(), and its first two entries are the two queries with the most
// simulated cycles on the fabric engine, so they start together.
func TestRunAllDispatchOrder(t *testing.T) {
	qs := All()
	if len(dispatchOrder) != len(qs) {
		t.Fatalf("dispatch order has %d entries, All() %d", len(dispatchOrder), len(qs))
	}
	seen := make([]bool, len(qs))
	for _, i := range dispatchOrder {
		if i < 0 || i >= len(qs) || seen[i] {
			t.Fatalf("dispatch order %v is not a permutation of All()", dispatchOrder)
		}
		seen[i] = true
	}
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	for _, seed := range []int64{1, 7} {
		res, err := runSerial(NewAurochs(4), Generate(SmallScale(), seed))
		if err != nil {
			t.Fatal(err)
		}
		byCost := make([]int, len(res))
		for i := range byCost {
			byCost[i] = i
		}
		sort.SliceStable(byCost, func(a, b int) bool { return res[byCost[a]].Cost.Seconds > res[byCost[b]].Cost.Seconds })
		top := map[int]bool{byCost[0]: true, byCost[1]: true}
		if !top[dispatchOrder[0]] || !top[dispatchOrder[1]] {
			t.Errorf("seed %d: dispatch starts with %s and %s, but the two longest queries are %s (%.3g s) and %s (%.3g s)",
				seed, qs[dispatchOrder[0]].Name, qs[dispatchOrder[1]].Name,
				qs[byCost[0]].Name, res[byCost[0]].Cost.Seconds, qs[byCost[1]].Name, res[byCost[1]].Cost.Seconds)
		}
	}
}

// failingEngine delegates to the CPU engine for results, charges a fixed
// cost so results do not depend on host time, and fails every call of one
// operator.
type failingEngine struct {
	inner  *CPUEngine
	failOp string
}

var errInjected = errors.New("injected operator failure")

func (e *failingEngine) Name() string { return "failing" }

func (e *failingEngine) EquiJoin(b, p []KV) ([]Pair, Cost, error) {
	if e.failOp == "equijoin" {
		return nil, Cost{}, errInjected
	}
	out, _, err := e.inner.EquiJoin(b, p)
	return out, Cost{Seconds: 1}, err
}

func (e *failingEngine) SpatialProbe(pts []Point, qs []CircleQ) ([]SPair, Cost, error) {
	out, _, err := e.inner.SpatialProbe(pts, qs)
	return out, Cost{Seconds: 1}, err
}

func (e *failingEngine) WindowProbe(pts []Point, qs []RectQ) ([]SPair, Cost, error) {
	if e.failOp == "window" {
		return nil, Cost{}, errInjected
	}
	out, _, err := e.inner.WindowProbe(pts, qs)
	return out, Cost{Seconds: 1}, err
}

func (e *failingEngine) TimeRange(entries []KV, lo, hi uint32) ([]uint32, Cost, error) {
	out, _, err := e.inner.TimeRange(entries, lo, hi)
	return out, Cost{Seconds: 1}, err
}

func (e *failingEngine) GroupCount(keys []uint32) (map[uint32]int64, Cost, error) {
	if e.failOp == "groupcount" {
		return nil, Cost{}, errInjected
	}
	out, _, err := e.inner.GroupCount(keys)
	return out, Cost{Seconds: 1}, err
}

func (e *failingEngine) Sort(n, rowBytes int) (Cost, error) { return Cost{Seconds: 1}, nil }

func (e *failingEngine) Predict(n, flops int) (Cost, error) { return Cost{Seconds: 1}, nil }

// TestRunAllErrorMatchesSerial: when an operator fails, the fanned-out
// RunAll returns what the serial loop returns — the results of the queries
// before the first failing one in All() order, and that query's wrapped
// error — even though later queries may have run. The equijoin and
// groupcount failures hit q1 first, which is also dispatched first; the
// window failure hits q2 first in All() order, while q6 and q8, which
// also fail, are dispatched before it.
func TestRunAllErrorMatchesSerial(t *testing.T) {
	d := Generate(SmallScale(), 3)
	for _, op := range []string{"equijoin", "groupcount", "window"} {
		e := &failingEngine{inner: NewCPU(), failOp: op}
		want, wantErr := runSerial(e, d)
		got, gotErr := RunAll(e, d)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, errInjected) {
			t.Fatalf("%s: RunAll error %v, serial loop %v", op, gotErr, wantErr)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: RunAll results nil=%v, serial loop nil=%v", op, got == nil, want == nil)
		}
		sameResults(t, op, got, want)
	}
}

// TestRunAllKeepsCPUAndGPUSerial: RunAll runs one query at a time on the
// CPU engine, whose cost is host wall-clock time, and on the GPU engine,
// whose operators write its Last*Eff fields; every other engine may fan
// out. The GPU engine's fields end as the serial loop leaves them.
func TestRunAllKeepsCPUAndGPUSerial(t *testing.T) {
	for _, tc := range []struct {
		e    Engine
		want int
	}{
		{NewCPU(), 1},
		{NewGPU(), 1},
		{NewAurochs(4), min(runtime.GOMAXPROCS(0), len(All()))},
		{&failingEngine{inner: NewCPU()}, min(runtime.GOMAXPROCS(0), len(All()))},
	} {
		if got := workersFor(tc.e, len(All())); got != tc.want {
			t.Errorf("%T: RunAll uses %d goroutines, want %d", tc.e, got, tc.want)
		}
	}

	d := Generate(SmallScale(), 2)
	serial := NewGPU()
	if _, err := runSerial(serial, d); err != nil {
		t.Fatal(err)
	}
	fanned := NewGPU()
	if _, err := RunAll(fanned, d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([2]float64{fanned.LastBuildEff, fanned.LastProbeEff},
		[2]float64{serial.LastBuildEff, serial.LastProbeEff}) {
		t.Errorf("GPU efficiencies after RunAll %v/%v, serial loop %v/%v",
			fanned.LastBuildEff, fanned.LastProbeEff, serial.LastBuildEff, serial.LastProbeEff)
	}
}
