package queries

import (
	"math"
	"testing"
)

// TestEnginesAgree is the central integration test: every query must
// produce an identical result fingerprint on the Aurochs fabric simulator,
// the CPU baseline, and the GPU model — the performance comparison is only
// meaningful between correct implementations.
func TestEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	d := Generate(SmallScale(), 1)
	engines := []Engine{NewCPU(), NewGPU(), NewAurochs(2)}
	results := make(map[string][]QueryResult)
	for _, e := range engines {
		rs, err := RunAll(e, d)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		results[e.Name()] = rs
	}
	ref := results["cpu"]
	for _, e := range engines {
		rs := results[e.Name()]
		for i, r := range rs {
			if r.Fingerprint != ref[i].Fingerprint || r.Rows != ref[i].Rows {
				t.Errorf("%s: %s disagrees with cpu: rows %d vs %d, fp %x vs %x",
					r.Query, e.Name(), r.Rows, ref[i].Rows, r.Fingerprint, ref[i].Fingerprint)
			}
			if r.Cost.Seconds <= 0 {
				t.Errorf("%s/%s: no cost recorded", r.Query, e.Name())
			}
		}
	}
}

// TestQ6CostDeterministic: Q6 joins two GroupCount maps, so its join sides
// must be built in key order, not map order, or the simulated cost drifts
// from run to run. Five in-process runs must agree bit for bit.
func TestQ6CostDeterministic(t *testing.T) {
	d := Generate(SmallScale(), 1)
	e := NewAurochs(4)
	ref, err := Q6(e, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		r, err := Q6(e, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Cost.Seconds) != math.Float64bits(ref.Cost.Seconds) ||
			r.Fingerprint != ref.Fingerprint || r.Rows != ref.Rows {
			t.Fatalf("run %d: cost %v fp %x rows %d, first run cost %v fp %x rows %d",
				i, r.Cost.Seconds, r.Fingerprint, r.Rows, ref.Cost.Seconds, ref.Fingerprint, ref.Rows)
		}
	}
}

// TestQueriesNonTrivial: every query must produce a non-empty result on
// the generated dataset, or it is not exercising its operators.
func TestQueriesNonTrivial(t *testing.T) {
	d := Generate(SmallScale(), 2)
	rs, err := RunAll(NewCPU(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Rows == 0 {
			t.Errorf("%s returned no rows", r.Query)
		}
	}
}

// TestDeterministicGeneration: same seed, same data; different seed,
// different data.
func TestDeterministicGeneration(t *testing.T) {
	a := Generate(SmallScale(), 7)
	b := Generate(SmallScale(), 7)
	c := Generate(SmallScale(), 8)
	if a.Rides[100] != b.Rides[100] || a.RideReqs[5] != b.RideReqs[5] {
		t.Error("generation not deterministic")
	}
	if a.Rides[100] == c.Rides[100] {
		t.Error("different seeds produced identical rides")
	}
}

// TestGPUWarpEfficiencyInPaperBand: the modeled warp execution efficiency
// on the hash join must land in the neighbourhood the paper profiles on a
// V100 (62 % build, 46 % probe): divergence, not bandwidth, is the story.
func TestGPUWarpEfficiencyInPaperBand(t *testing.T) {
	d := Generate(SmallScale(), 3)
	e := NewGPU()
	build := make([]KV, len(d.Rides))
	for i, r := range d.Rides {
		build[i] = KV{Key: r.RiderID, Val: uint32(i)}
	}
	probe := make([]KV, len(d.RideReqs))
	for i, r := range d.RideReqs {
		probe[i] = KV{Key: r.RiderID, Val: uint32(i)}
	}
	if _, _, err := e.EquiJoin(build, probe); err != nil {
		t.Fatal(err)
	}
	if e.LastBuildEff < 0.3 || e.LastBuildEff > 0.9 {
		t.Errorf("build warp efficiency %.2f outside the plausible band", e.LastBuildEff)
	}
	if e.LastProbeEff < 0.25 || e.LastProbeEff > 0.8 {
		t.Errorf("probe warp efficiency %.2f outside the plausible band", e.LastProbeEff)
	}
	if e.LastProbeEff >= e.LastBuildEff {
		t.Errorf("probe efficiency (%.2f) should be below build (%.2f) — longer divergent walks", e.LastProbeEff, e.LastBuildEff)
	}
}

// TestCostsOrdering: on the small dataset Aurochs' modeled time must beat
// the CPU's wall clock on the join-heavy queries by a visible margin (the
// full factor needs bench-scale data; here we just check the direction).
func TestCostsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle simulation in -short mode")
	}
	d := Generate(SmallScale(), 4)
	cpuR, err := RunAll(NewCPU(), d)
	if err != nil {
		t.Fatal(err)
	}
	aurR, err := RunAll(NewAurochs(4), d)
	if err != nil {
		t.Fatal(err)
	}
	var cpuT, aurT float64
	for i := range cpuR {
		cpuT += cpuR[i].Cost.Seconds
		aurT += aurR[i].Cost.Seconds
	}
	if aurT <= 0 || cpuT <= 0 {
		t.Fatalf("degenerate totals: cpu=%f aurochs=%f", cpuT, aurT)
	}
	t.Logf("total cpu=%.6fs aurochs=%.6fs (ratio %.1fx)", cpuT, aurT, cpuT/aurT)
}
