// Package core implements the paper's primary contribution: the dataflow
// kernels that reformulate pointer-chasing data structures — hash tables,
// B-trees, R-trees, radix partitions — as graphs of filtered, forked, and
// recirculating thread records on the Aurochs fabric (paper §III-A, §IV,
// figs. 5-7).
//
// Every kernel here runs on the cycle-level fabric model and produces both
// a functional result (the actual join matches, tree hits, partitions) and
// a timing result (cycles, DRAM traffic, conflict counters). Tests
// cross-check the functional results against straightforward software
// reference implementations; the benchmark harness reads the timing.
package core

import (
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// Nil is the null pointer sentinel in scratchpad and DRAM structures.
const Nil = 0xFFFFFFFF

// Hash32 is the multiplicative hash used to scramble keys into buckets and
// partitions. Hash functions take skewed key distributions to uniform ones,
// which is what lets radix-partitioning on the hash load-balance parallel
// pipelines regardless of skew (paper §IV-A).
func Hash32(key uint32) uint32 {
	h := key * 2654435761
	h ^= h >> 16
	return h * 0x85ebca6b
}

// Hash64 hashes a 64-bit key.
func Hash64(key uint64) uint32 {
	return Hash32(uint32(key)) ^ Hash32(uint32(key>>32)+0x9e3779b9)
}

// Result is the timing outcome of one kernel run.
type Result struct {
	// Cycles is the simulated cycle count at the fabric's 1 GHz clock.
	Cycles int64
	// DRAMBytes is the total HBM traffic the kernel generated.
	DRAMBytes int64
	// Stats exposes the microarchitectural counters of the run.
	Stats *sim.Stats
	// Workers is always 1. It is kept only because the frozen perfbench
	// harness reads it, and goes away in the next benchmark change.
	Workers int
	// Kernel.Fallback is always empty. It is kept only because the frozen
	// perfbench harness reads it, and goes away in the next benchmark
	// change.
	Kernel struct{ Fallback string }
}

// Seconds converts cycles to wall time at the fabric clock.
func (r Result) Seconds() float64 { return float64(r.Cycles) / ClockHz }

// ClockHz is the fabric clock rate: the design meets timing at 1 GHz with
// the critical path from the issue queue through the allocator (paper §V-A).
const ClockHz = 1e9

// scalarTicks puts every kernel graph on the scalar tick path
// (fabric.Graph.NoBatch). Only tests set it, to get the reference execution
// of a multi-phase kernel for batch-vs-scalar comparisons.
var scalarTicks bool

// runGraph executes a wired kernel graph and assembles its Result.
func runGraph(g *fabric.Graph, maxCycles int64) (Result, error) {
	if scalarTicks {
		g.NoBatch = true
	}
	var before int64
	if g.HBM != nil {
		before = g.HBM.BytesMoved()
	}
	cycles, err := g.Run(maxCycles)
	res := Result{Cycles: cycles, Stats: g.Stats(), Workers: 1}
	if g.HBM != nil {
		// Attribute posted writes still resident in the combining buffer
		// to the phase that produced them.
		g.HBM.FlushWrites()
		res.DRAMBytes = g.HBM.BytesMoved() - before
	}
	return res, err
}

// Tuning shared by kernels. The InOrderSpad and NoForwarding knobs exist
// for the ablation benchmarks; production kernels leave them false.
type Tuning struct {
	// InOrderSpad selects the Capstan in-order scratchpad pipeline.
	InOrderSpad bool
	// NoForwarding disables the RMW write→read forwarding path.
	NoForwarding bool
}

// spadConfig builds a scratchpad config honoring the tuning knobs.
func (t Tuning) spadConfig(name string) spad.Config {
	return spad.Config{Name: name, InOrder: t.InOrderSpad, ForwardRMW: !t.NoForwarding}
}

// defaultHBM builds the standard HBM model instance for kernels that are
// not handed one by the caller.
func defaultHBM() *dram.HBM {
	return dram.New(dram.DefaultConfig())
}
