package perfmodel

import (
	"math"
	"math/rand"
	"testing"

	"aurochs/internal/core"
	"aurochs/internal/record"
)

func simJoinCycles(t *testing.T, n, p int) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	mk := func() []record.Rec {
		out := make([]record.Rec, n)
		for i := range out {
			out[i] = record.Make(rng.Uint32(), uint32(i))
		}
		return out
	}
	_, res, err := core.HashJoin(nil, mk(), mk(), core.HashJoinOptions{Pipelines: p})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestModelMatchesSim is the paper's validation step: fit the hash-join
// model from two small cycle-accurate runs, predict a third (2x larger),
// and require agreement. This is what justifies projecting fig. 11 to
// table sizes the simulator cannot reach.
func TestModelMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	n1, n2, n3 := 4000, 8000, 16000
	c1 := simJoinCycles(t, n1, 1)
	c2 := simJoinCycles(t, n2, 1)
	c3 := simJoinCycles(t, n3, 1)

	fit := Fit(int64(n1), float64(c1), int64(n2), float64(c2))
	pred := fit.At(int64(n3))
	err := math.Abs(pred-float64(c3)) / float64(c3)
	if err > 0.30 {
		t.Errorf("model predicts %0.0f cycles at n=%d; sim says %d (%.0f%% error)",
			pred, n3, c3, err*100)
	}
	t.Logf("fit: fixed=%.0f perRec=%.3f; predicted %0.0f vs sim %d (%.1f%% error)",
		fit.Fixed, fit.PerRec, pred, c3, err*100)
}

// TestDefaultModelInSimBallpark: the shipped constants must reproduce a
// live simulation within a factor band (they are calibrated, not fitted
// per run).
func TestDefaultModelInSimBallpark(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	const n = 16000
	sim := float64(simJoinCycles(t, n, 1))
	model := Default().HashJoinCycles(n, n, 1)
	ratio := model / sim
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("default model %.0f vs sim %.0f cycles (ratio %.2f)", model, sim, ratio)
	}
	t.Logf("model %.0f vs sim %.0f (ratio %.2f)", model, sim, ratio)
}

// TestComposedModelLargeScale validates the two-chord envelope against live
// composed-join simulations at both ends of the fitted range — the 32K-row
// fill/drain regime and the 1M-row steady-state regime (the scale fig. 11a
// projects from). The shipped constants were fitted from the BENCH_5 sweep
// at these sizes; tolerance covers data-dependent jitter (key distribution,
// overflow placement), not drift. If a kernel change moves composed cycles
// beyond it, re-fit Default()'s JoinComposed terms from a fresh sweep
// rather than widening the band.
func TestComposedModelLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row cycle simulation in -short mode")
	}
	m := Default()
	for _, rows := range []int{32768, 1048576} {
		sim := float64(simJoinCycles(t, rows, 16))
		pred := m.HashJoinCycles(int64(rows), int64(rows), 16)
		err := math.Abs(pred-sim) / sim
		t.Logf("rows=%d sim=%.0f model=%.0f (%.1f%% error)", rows, sim, pred, err*100)
		if err > 0.15 {
			t.Errorf("rows=%d: model %.0f vs sim %.0f cycles (%.0f%% error, tolerance 15%%)",
				rows, pred, sim, err*100)
		}
	}
}

func TestCrossoverHashBeatsSortAtScale(t *testing.T) {
	m := Default()
	// Small tables: sort-merge may win (dense access); huge tables: the
	// hash join must win by a widening margin — fig. 11a's crossover. The
	// paper's configuration is heavily parallelized (P=16 here).
	small := m.SortMergeJoinCycles(1e4, 1e4, 16) / m.HashJoinCycles(1e4, 1e4, 16)
	big := m.SortMergeJoinCycles(1e8, 1e8, 16) / m.HashJoinCycles(1e8, 1e8, 16)
	if big <= small {
		t.Errorf("sort/hash cycle ratio must grow with size: small=%.2f big=%.2f", small, big)
	}
	if big < 1.5 {
		t.Errorf("at 1e8 rows the hash join should clearly win (ratio %.2f)", big)
	}
}

func TestSpatialAsymptotics(t *testing.T) {
	m := Default()
	// Aurochs' indexed spatial join grows ~log in the indexed table;
	// Gorgon's grows super-linearly. Their ratio must diverge.
	ratioAt := func(n int64) float64 {
		g := m.SpatialJoinGorgonCycles(n, 1e4, 8)
		a := m.SpatialJoinAurochsCycles(n, 1e4, 20, 8)
		return g / a
	}
	if ratioAt(1e7) <= ratioAt(1e5) {
		t.Errorf("Gorgon/Aurochs spatial ratio must widen: 1e5→%.1f 1e7→%.1f", ratioAt(1e5), ratioAt(1e7))
	}
}

func TestPipelineScalingSaturates(t *testing.T) {
	m := Default()
	// fig. 12: throughput scales with P until memory-bound.
	c1 := m.HashJoinCycles(1e8, 1e8, 1)
	c8 := m.HashJoinCycles(1e8, 1e8, 8)
	c64 := m.HashJoinCycles(1e8, 1e8, 64)
	if c8 >= c1 {
		t.Error("P=8 not faster than P=1")
	}
	gain18 := c1 / c8
	gain864 := c8 / c64
	if gain864 >= gain18 {
		t.Errorf("scaling should flatten: 1→8 %.1fx, 8→64 %.1fx", gain18, gain864)
	}
}

func TestAurochsJoinThroughputAnchor(t *testing.T) {
	// The paper: "Aurochs can join tables at over 50 GB/s" when
	// parallelized, vs GPU 4.5 GB/s.
	m := Default()
	cycles := m.HashJoinCycles(1e8, 1e8, 32)
	gbs := JoinThroughputGBs(1e8, 1e8, cycles)
	// The paper reports "over 50 GB/s"; our fabric model is somewhat more
	// bandwidth-efficient than the authors' testbed, so accept a band
	// above the paper's floor (EXPERIMENTS.md discusses the delta).
	if gbs < 50 || gbs > 600 {
		t.Errorf("parallel join throughput %.0f GB/s; paper anchor >50", gbs)
	}
}

func TestFitExact(t *testing.T) {
	tm := Fit(10, 110, 20, 210)
	if tm.PerRec != 10 || tm.Fixed != 10 {
		t.Errorf("fit: %+v", tm)
	}
	if tm.At(30) != 310 {
		t.Errorf("At(30)=%f", tm.At(30))
	}
}
