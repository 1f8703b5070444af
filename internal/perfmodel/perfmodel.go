// Package perfmodel is the analytical kernel model the evaluation uses to
// extend measurements to table sizes impractical for cycle simulation —
// the paper does exactly this for fig. 11 ("we project performance at
// larger datasets using an analytical model validated against smaller
// cycle-level simulations").
//
// Each kernel is a two-term model: a pipeline term (cycles per record per
// pipeline, plus a fixed fill/drain cost) and a memory term (DRAM bytes per
// record against peak bandwidth). Kernel time is the max of the two — the
// roofline that produces fig. 12's saturation. Constants are *calibrated*
// by running the real cycle-level kernels at two sizes and fitting; tests
// assert the fitted model predicts a third, larger size within tolerance.
package perfmodel

import (
	"math"

	"aurochs/internal/dram"
)

// Term is a fitted linear cost: Fixed + PerRec·n cycles at P = 1.
type Term struct {
	Fixed  float64
	PerRec float64
}

// Fit solves the two-point linear system.
func Fit(n1 int64, c1 float64, n2 int64, c2 float64) Term {
	per := (c2 - c1) / float64(n2-n1)
	return Term{Fixed: c1 - per*float64(n1), PerRec: per}
}

// At evaluates the term.
func (t Term) At(n int64) float64 {
	return t.Fixed + t.PerRec*float64(n)
}

// Model is the calibrated Aurochs kernel model.
type Model struct {
	// Peak is DRAM bandwidth in bytes per fabric cycle.
	Peak float64

	// Pipeline terms (cycles at P=1) and memory traffic (bytes/record).
	Partition      Term
	PartitionBytes float64
	SortPass       Term // one streaming pass over n records
	SortPassBytes  float64
	TreeFetch      float64 // cycles per node fetch at P=1 (latency-hidden, throughput cost)
	TreeNodeBytes  float64
	// JoinComposed is the end-to-end hash join fitted at the *composed*
	// level (both partition passes + per-partition build/probe rounds,
	// including inter-phase drain overheads the kernel terms miss). It is
	// the small-table regime: per-pipeline streams are short, so fill and
	// drain dominate and the marginal cost per record is high.
	JoinComposed      Term
	JoinComposedBytes float64
	// JoinComposedLarge is the same composed join fitted in the
	// steady-state regime (≥512K-row sides): streams are deep enough to
	// keep every pipeline stage occupied, so the marginal cost per record
	// falls toward the vector-lane bound while the fitted intercept
	// absorbs the extra partition rounds large tables need. The composed
	// cost curve is concave, so the model takes the LOWER envelope of the
	// two chords (see HashJoinCycles) — each chord is exact at the sizes
	// it was fitted from and an upper bound elsewhere.
	JoinComposedLarge Term
}

// Default returns a model with constants hand-calibrated against the cycle
// simulator at the defaults in this repository (see TestModelMatchesSim,
// which re-fits from live runs and checks agreement).
func Default() Model {
	return Model{
		Peak: dram.DefaultConfig().PeakBytesPerCycle(),
		// Fitted from cycle-level runs at n = 8k and 32k (see the
		// calibration tests).
		Partition:      Term{Fixed: 700, PerRec: 0.21},
		PartitionBytes: 9,
		SortPass:       Term{Fixed: 500, PerRec: 0.07},
		SortPassBytes:  16,
		TreeFetch:      1.1,
		TreeNodeBytes:  160,
		// Re-fitted from the BENCH_5 rows sweep (P=16, both sides equal):
		// 32K/128K-row sides for the small-table chord, 512K/1M-row sides
		// for the steady-state chord. Normalized to P=1 (the sweep slope
		// times 16). The measured DRAM traffic is 17.0 bytes per total
		// record, flat from 32K to 1M rows. TestComposedModelLargeScale
		// re-runs the 32K- and 1M-row sims and holds the envelope to them;
		// a kernel change that shifts composed cycles must re-fit these
		// constants, not widen that tolerance.
		JoinComposed:      Term{Fixed: 2194, PerRec: 1.62},
		JoinComposedBytes: 17,
		JoinComposedLarge: Term{Fixed: 48840, PerRec: 0.226},
	}
}

// kernel computes the rooflined cycles of one kernel over n records with P
// pipelines.
func (m Model) kernel(t Term, bytesPerRec float64, n int64, p int) float64 {
	pipe := t.Fixed + t.PerRec*float64(n)/float64(p)
	mem := bytesPerRec * float64(n) / m.Peak
	return math.Max(pipe, mem)
}

// sortPasses returns the streaming passes a Gorgon merge sort of n records
// needs (1 tile-sort pass + log_R merge passes) — the super-linear factor.
func sortPasses(n int64) float64 {
	const tile = 1 << 14
	const radix = 8
	passes := 1.0
	runs := float64(n) / tile
	for runs > 1 {
		passes++
		runs /= radix
	}
	return passes
}

// HashJoinCycles models the full partitioned hash join of fig. 11a using
// the composed-level fits (summing the per-kernel terms of fig. 12 would
// underestimate the inter-phase overheads). The pipeline cost
// is the lower envelope of the two regime chords — the composed cost curve
// is concave in n because short streams pay fill/drain per round while
// deep streams amortize it — rooflined against DRAM bandwidth.
func (m Model) HashJoinCycles(nBuild, nProbe int64, p int) float64 {
	n := nBuild + nProbe
	small := m.JoinComposed.Fixed + m.JoinComposed.PerRec*float64(n)/float64(p)
	large := m.JoinComposedLarge.Fixed + m.JoinComposedLarge.PerRec*float64(n)/float64(p)
	pipe := math.Min(small, large)
	mem := m.JoinComposedBytes * float64(n) / m.Peak
	return math.Max(pipe, mem)
}

// PartitionCycles models one radix-partition pass.
func (m Model) PartitionCycles(n int64, p int) float64 {
	return m.kernel(m.Partition, m.PartitionBytes, n, p)
}

// SortCycles models the Gorgon merge sort.
func (m Model) SortCycles(n int64, p int) float64 {
	return sortPasses(n) * m.kernel(m.SortPass, m.SortPassBytes, n, p)
}

// SortMergeJoinCycles models Gorgon's equi-join: two sorts and a merge pass.
func (m Model) SortMergeJoinCycles(na, nb int64, p int) float64 {
	return m.SortCycles(na, p) + m.SortCycles(nb, p) +
		m.kernel(m.SortPass, m.SortPassBytes/2, na+nb, p)
}

// TreeSearchCycles models a batch of index walks: visits nodes per query
// (≈ height + hits/fanout for a B-tree; higher for R-trees with overlap).
func (m Model) TreeSearchCycles(queries int64, nodesPerQuery float64, p int) float64 {
	fetches := float64(queries) * nodesPerQuery
	pipe := m.TreeFetch * fetches / float64(p)
	mem := m.TreeNodeBytes * fetches / m.Peak
	return math.Max(pipe, mem)
}

// SpatialJoinAurochsCycles models the indexed spatial join of fig. 11b:
// probes of an R-tree of nIndex entries, O(log n) nodes per probe.
func (m Model) SpatialJoinAurochsCycles(nIndex, nProbe int64, hitsPerProbe float64, p int) float64 {
	const fanout = 8
	height := math.Max(1, math.Log(float64(nIndex))/math.Log(fanout))
	nodes := height + hitsPerProbe/fanout
	return m.TreeSearchCycles(nProbe, nodes, p)
}

// SpatialJoinGorgonCycles models Gorgon's index-free spatial join: presort
// the big table, then all-to-all compares at 16 lanes/cycle.
func (m Model) SpatialJoinGorgonCycles(nIndex, nProbe int64, p int) float64 {
	return m.SortCycles(nIndex, p) + float64(nIndex)*float64(nProbe)/(16*float64(p))
}

// LSMCost adapts the model to the lsm.CostModel interface: bulk loads are
// Gorgon sorts, merges a single streaming pass — priced at P pipelines.
type LSMCost struct {
	M Model
	P int
}

// SortCycles implements lsm.CostModel.
func (c LSMCost) SortCycles(n int) float64 {
	return c.M.SortCycles(int64(n), c.P)
}

// MergeCycles implements lsm.CostModel.
func (c LSMCost) MergeCycles(n, m int) float64 {
	return c.M.kernel(c.M.SortPass, c.M.SortPassBytes, int64(n+m), c.P)
}

// JoinThroughputGBs converts a join's cycles into GB/s of table data
// consumed (both sides, 8-byte tuples), the fig. 11a y-axis.
func JoinThroughputGBs(nBuild, nProbe int64, cycles float64) float64 {
	bytes := float64(nBuild+nProbe) * 8
	seconds := cycles / 1e9
	return bytes / seconds / 1e9
}
