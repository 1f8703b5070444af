// Package fabric models the spatial compute fabric of Gorgon/Aurochs: a
// graph of 16-lane compute tiles and scratchpad tiles connected by
// registered, latency-annotated streaming links. Kernels (internal/core)
// assemble graphs from this package's node types:
//
//   - Source / Sink    — stream endpoints
//   - Map              — per-record mutation (6-stage pipelined datapath)
//   - Filter           — branch-to-dataflow: predicate splits a stream in
//     two with thread compaction on both sides
//   - Merge            — recombines streams (priority to the cyclic path)
//   - Fork             — spawns child threads from a parent
//   - spad.Tile        — the sparse reordering scratchpad (package spad)
//   - DRAMNode         — gather/scatter/append against the shared HBM
//
// Cyclic graphs — the paper's recirculating while-loops — are coordinated
// by a LoopCtl that implements the stream-end token protocol of §III-A:
// end-of-stream leaves a loop only after the cyclic pipeline has provably
// emptied.
package fabric

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/sim"
)

// Default structural parameters of the fabric model.
const (
	// PipelineDepth is a compute tile's datapath latency in cycles: six
	// statically reconfigured stages (paper §II-B).
	PipelineDepth = 6
	// LinkLatency is the default tile-to-tile interconnect latency. The
	// threading model tolerates arbitrary on-chip latencies, so kernels
	// leave this at the default unless a placement says otherwise.
	LinkLatency = 2
	// LinkCapacity is the default skid-buffer depth per link.
	LinkCapacity = 8
)

// Graph assembles a dataflow kernel: it owns the sim.System, the shared
// HBM (if any), and construction helpers. After wiring, call Run; it
// verifies the topology with Check before the first cycle ticks.
type Graph struct {
	Sys *sim.System
	HBM *dram.HBM

	// NoBatch forces the scalar tick path (sim.RunOptions.NoBatch); the
	// batch-vs-scalar conformance suite runs each blueprint once with this
	// set to obtain the reference execution.
	NoBatch bool

	hbmTicker *hbmComponent
	// defects collects construction-time wiring errors (e.g. a DRAM node
	// on a graph with no HBM attached) for Check to report alongside the
	// topology diagnostics.
	defects []Diag
}

// NewGraph creates an empty kernel graph with its own simulation system.
func NewGraph() *Graph {
	return &Graph{Sys: sim.NewSystem()}
}

// Stats exposes the system counter set.
func (g *Graph) Stats() *sim.Stats { return g.Sys.Stats() }

// Link creates a default link (LinkCapacity deep, LinkLatency cycles).
func (g *Graph) Link(name string) *sim.Link {
	return g.Sys.NewLink(name, LinkCapacity, LinkLatency)
}

// LinkLat creates a link with an explicit latency — used when a placement
// puts producer and consumer tiles far apart on the grid.
func (g *Graph) LinkLat(name string, latency int) *sim.Link {
	return g.Sys.NewLink(name, LinkCapacity, latency)
}

// Add registers nodes with the system.
func (g *Graph) Add(nodes ...sim.Component) {
	for _, n := range nodes {
		g.Sys.Add(n)
	}
}

// AttachHBM installs a shared HBM and registers its clock component. The
// HBM's clock state is rebased because this graph's cycles start at zero;
// kernel phases sharing one HBM run as separate graphs.
func (g *Graph) AttachHBM(h *dram.HBM) {
	h.ResetClock()
	g.HBM = h
	g.hbmTicker = &hbmComponent{h: h}
	g.Sys.Add(g.hbmTicker)
}

// Run verifies the graph topology, then simulates until the graph drains
// and returns elapsed cycles. A malformed graph is rejected before the
// first cycle with a *CheckError naming each structural bug.
func (g *Graph) Run(maxCycles int64) (int64, error) {
	if err := g.Check(); err != nil {
		return 0, err
	}
	return g.Sys.RunWith(maxCycles, sim.RunOptions{NoBatch: g.NoBatch})
}

// defectf records a construction-time wiring error for Check.
func (g *Graph) defectf(code DiagCode, format string, args ...any) {
	g.defects = append(g.defects, Diag{Code: code, Msg: fmt.Sprintf(format, args...)})
}

// hbmComponent adapts the HBM model to the component interface.
type hbmComponent struct {
	h *dram.HBM
}

func (c *hbmComponent) Name() string { return "hbm" }

func (c *hbmComponent) Tick(cycle int64) { c.h.Tick(cycle) }

// Done: the HBM is passive; it is done when no requests remain. Nodes that
// wait on it stay !Done until their responses arrive, so reporting drained
// here is safe.
func (c *hbmComponent) Done() bool { return c.h.Drained() }

// Idle implements sim.Idler: ticking an HBM with nothing queued, no
// in-flight burst due, and no posted write due for its age-out flush is a
// no-op. The answer is a pure function of (state, cycle); DRAM nodes
// submit via SubmitAt with their own cycle, so the clock a sleeping HBM
// last saw is never read.
func (c *hbmComponent) Idle(cycle int64) bool {
	return c.h.QuiescentAt(cycle)
}

// WakeHint implements sim.WakeHinter: left alone, the HBM's next event is
// its earliest burst completion or the oldest posted write crossing the
// age-out horizon, so it sleeps through DRAM round trips. Everything else
// it does reacts to a submission, and submitters share identity state
// with it (SharedState), so they wake it as partners.
func (c *hbmComponent) WakeHint(cycle int64) int64 {
	return c.h.NextEvent()
}

// SharedState implements sim.StateSharer: every DRAM node submitting to
// this HBM (and receiving completion callbacks from its Tick) must tick on
// the same worker.
func (c *hbmComponent) SharedState() []any { return []any{c.h} }

// HostsCallbacks implements sim.CallbackHost: this tick fires Done closures
// owned by submitting nodes, whose side effects can reach state those nodes
// share under other keys (e.g. a DRAMExpand adjusting its LoopCtl when an
// expansion kills a thread). The scheduler widens the wake set accordingly.
func (c *hbmComponent) HostsCallbacks() {}

// WorstCaseInternalLatency implements sim.LatencyBound: DRAM round trips
// are the longest link-invisible stretch in any graph.
func (c *hbmComponent) WorstCaseInternalLatency() int64 {
	return c.h.WorstCaseInternalLatency()
}
