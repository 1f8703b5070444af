package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/queries"
	"aurochs/internal/record"
)

// bench is one workload's generated inputs plus its reference outputs.
type bench interface {
	// rows is the input rows one invocation consumes.
	rows() int
	// reference computes the expected outputs on the host. It runs once,
	// outside set-up and outside every timed region.
	reference() error
	// invoke makes one closed-loop invocation of the public API, times it,
	// and checks its outputs after the timed span ends.
	invoke(traced bool) outcome
}

// outcome is what one invocation measured.
type outcome struct {
	// wall is the host time inside the public calls, one entry per
	// independent unit of work: the kernel call, or one city's queries.
	wall   []time.Duration
	ops    int      // operations attempted
	failed int      // operations that errored or failed their check
	notes  []string // why they failed
	cycles float64  // simulated cycles at the 1 GHz fabric clock
	// sig renders every simulated count of each operation; a seed must
	// reproduce it exactly.
	sig []string
	// sim holds the per-layer simulated counts; host holds per-layer host
	// seconds and is filled only when traced.
	sim  *ledger
	host map[string]float64
	// kernel is the tick-kernel decision a core call reported; nil when
	// the API in use does not expose it.
	kernel *kernelInfo
}

type kernelInfo struct {
	Workers  int    `json:"workers"`
	Fallback string `json:"fallback"`
}

func newOutcome(ops int, traced bool) outcome {
	o := outcome{ops: ops, sim: newLedger()}
	if traced {
		o.host = map[string]float64{}
	}
	return o
}

// seconds is the invocation's total host time.
func (o *outcome) seconds() float64 {
	var d time.Duration
	for _, w := range o.wall {
		d += w
	}
	return d.Seconds()
}

// fail records n failed operations and why.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	o.notes = append(o.notes, err.Error())
}

type workload struct {
	name  string
	setup func(seed int64) bench
}

// The three workloads stress different layers. join-fig11a streams through
// block transport, batched ticks and flit copies and drives DRAM with
// partition writes and extent reads. aggregate-skew uses the same spad
// layer for atomic read-modify-writes under heavy bank conflicts and moves
// no DRAM bytes, so a DRAM-model change must predict no change there.
// rideshare-mix makes many small kernel calls with fresh graphs, index
// builds and walks, where per-graph fixed costs and the DRAM model dominate
// and flit copies matter least.
var workloads = []workload{
	{"join-fig11a", newJoin},
	{"aggregate-skew", newAggregate},
	{"rideshare-mix", newRideshare},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// --- join-fig11a -----------------------------------------------------------

// joinRows is the rows per side: in the steady-state regime where simulated
// cycles per row have flattened (>= 128K), not the fill/drain regime.
const (
	joinRows      = 128 << 10
	joinPipelines = 16
)

type joinBench struct {
	build, probe []record.Rec
	want         joinSummary
}

// newJoin draws both sides' keys uniformly from [0, 2*joinRows), so the
// join yields about joinRows/2 matches; vals are row indices.
func newJoin(seed int64) bench {
	rng := rand.New(rand.NewSource(seed))
	side := func() []record.Rec {
		out := make([]record.Rec, joinRows)
		for i := range out {
			out[i] = record.Make(uint32(rng.Intn(2*joinRows)), uint32(i))
		}
		return out
	}
	return &joinBench{build: side(), probe: side()}
}

func (j *joinBench) rows() int { return len(j.build) + len(j.probe) }

func (j *joinBench) reference() error {
	j.want = hostJoin(j.build, j.probe)
	return nil
}

func (j *joinBench) invoke(traced bool) outcome {
	o := newOutcome(1, traced)
	hbm := dram.New(dram.DefaultConfig())
	start := time.Now()
	matches, res, err := core.HashJoin(hbm, j.build, j.probe, core.HashJoinOptions{Pipelines: joinPipelines})
	o.wall = []time.Duration{time.Since(start)}
	if err != nil {
		o.fail(1, fmt.Errorf("HashJoin: %w", err))
		return o
	}
	if err := checkJoin(matches, j.want); err != nil {
		o.fail(1, err)
	}
	kernelOutcome(&o, "HashJoin", res, hbm)
	return o
}

// joinSummary is an order-independent digest of a join's matches.
type joinSummary struct {
	count int
	sum   uint64
}

// matchHash scrambles one (key, probeVal, buildVal) triple; a summary adds
// the hashes, so match order does not matter.
func matchHash(key, probeVal, buildVal uint32) uint64 {
	h := uint64(key)<<32 | uint64(probeVal)
	h ^= uint64(buildVal) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h
}

// hostJoin is the reference equi-join over [key, val] rows: every
// (build, probe) pair with equal keys.
func hostJoin(build, probe []record.Rec) joinSummary {
	byKey := map[uint32][]uint32{}
	for _, r := range build {
		byKey[r.Get(0)] = append(byKey[r.Get(0)], r.Get(1))
	}
	var s joinSummary
	for _, r := range probe {
		for _, bv := range byKey[r.Get(0)] {
			s.count++
			s.sum += matchHash(r.Get(0), r.Get(1), bv)
		}
	}
	return s
}

// checkJoin compares the kernel's [key, probeVal, buildVal] matches with
// the reference digest.
func checkJoin(matches []record.Rec, want joinSummary) error {
	var got joinSummary
	for _, m := range matches {
		got.count++
		got.sum += matchHash(m.Get(0), m.Get(1), m.Get(2))
	}
	if got != want {
		return fmt.Errorf("join: %d matches (checksum %x), want %d (checksum %x)", got.count, got.sum, want.count, want.sum)
	}
	return nil
}

// --- aggregate-skew --------------------------------------------------------

// About 80% of the keys hit aggHot hot groups; the rest spread over
// aggGroups groups (the ablation benchmark's skew).
const (
	aggKeys   = 256 << 10
	aggHot    = 8
	aggGroups = 4096
	// aggPrefix rows cycling through the hot groups open the stream. The
	// order in which the hot groups' nodes are first inserted fixes their
	// scratchpad slots, and so which of them share banks; left to the seed,
	// that splits runs into two modes about 1.75x apart in cycles. Every
	// hot node is linked well before the prefix ends.
	aggPrefix = 1024
)

type aggBench struct {
	keys []uint32
	want map[uint32]int64
}

func newAggregate(seed int64) bench {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint32, aggKeys)
	for i := range keys {
		if i < aggPrefix {
			keys[i] = uint32(i % aggHot)
		} else if rng.Float64() < 0.8 {
			keys[i] = uint32(rng.Intn(aggHot))
		} else {
			keys[i] = uint32(rng.Intn(aggGroups))
		}
	}
	return &aggBench{keys: keys}
}

func (a *aggBench) rows() int { return len(a.keys) }

func (a *aggBench) reference() error {
	a.want = map[uint32]int64{}
	for _, k := range a.keys {
		a.want[k]++
	}
	return nil
}

func (a *aggBench) invoke(traced bool) outcome {
	o := newOutcome(1, traced)
	hbm := dram.New(dram.DefaultConfig())
	// Sized by row count, as the query engine's GroupCount sizes it.
	params := core.DefaultHashTableParams(len(a.keys))
	start := time.Now()
	agg, res, err := core.HashAggregate(params, a.keys, hbm)
	o.wall = []time.Duration{time.Since(start)}
	if err != nil {
		o.fail(1, fmt.Errorf("HashAggregate: %w", err))
		return o
	}
	if err := checkGroups(agg.Groups(), a.want); err != nil {
		o.fail(1, err)
	}
	kernelOutcome(&o, "HashAggregate", res, hbm)
	return o
}

// checkGroups compares per-group counts with the reference count map.
func checkGroups(got, want map[uint32]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("aggregate: %d groups, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("aggregate: group %d counted %d, want %d", k, got[k], n)
		}
	}
	return nil
}

// kernelOutcome records what a core kernel call exposes: its Result and
// the public counters of the HBM the benchmark passed in.
func kernelOutcome(o *outcome, kernel string, res core.Result, hbm *dram.HBM) {
	o.cycles = float64(res.Cycles)
	o.kernel = &kernelInfo{Workers: res.Workers, Fallback: res.Kernel.Fallback}
	if o.host != nil {
		o.host["core."+kernel+".host_s"] = o.seconds()
	}
	l := o.sim
	l.set("core."+kernel+".calls", 1)
	l.set("sim.workers_resolved", float64(res.Workers))

	l.set("dram.bytes", float64(res.DRAMBytes))
	l.set("dram.read_bursts", float64(hbm.ReadBursts))
	l.set("dram.write_bursts", float64(hbm.WriteBursts))
	l.set("dram.row_hits", float64(hbm.RowHits))
	l.set("dram.row_misses", float64(hbm.RowMisses))
	l.ratio("dram.row_hit_ratio", float64(hbm.RowHits), float64(hbm.RowHits+hbm.RowMisses))
	l.set("dram.stalls", float64(hbm.Stalls))
	l.set("dram.coalesced_writes", float64(hbm.CoalescedWrites))

	var counters map[string]int64
	if res.Stats != nil {
		counters = res.Stats.Snapshot()
	}
	// An empty Stats leaves the counter metrics unset; manifest.json names
	// that gap.
	if len(counters) > 0 {
		for _, c := range []struct{ metric, suffix string }{
			{"fabric.dram_reqs", ".dram_reqs"},
			{"fabric.dram_stall", ".dram_stall"},
			{"fabric.spilled", ".spilled"},
			{"fabric.refills", ".refills"},
			{"spad.requests", ".requests"},
			{"spad.grants", ".grants"},
			{"spad.conflicts", ".conflicts"},
			{"spad.in_stall", ".in_stall"},
			{"spad.out_stall", ".out_stall"},
			{"spad.resp_stall", ".resp_stall"},
		} {
			l.set(c.metric, float64(sumSuffix(counters, c.suffix)))
		}
		l.ratio("spad.conflicts_per_grant", l.vals["spad.conflicts"], l.vals["spad.grants"])
	}

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var sig strings.Builder
	fmt.Fprintf(&sig, "%s cycles=%d dram_bytes=%d hbm=%d/%d/%d/%d/%d/%d", kernel, res.Cycles, res.DRAMBytes,
		hbm.ReadBursts, hbm.WriteBursts, hbm.RowHits, hbm.RowMisses, hbm.Stalls, hbm.CoalescedWrites)
	for _, name := range names {
		fmt.Fprintf(&sig, " %s=%d", name, counters[name])
	}
	o.sig = []string{sig.String()}
}

// --- rideshare-mix ---------------------------------------------------------

// The mix runs the nine queries over rideCities independent SmallScale
// cities, which together sit between queries.SmallScale and
// queries.BenchScale. One city's eight demand hotspots set every spatial
// query's selectivity, so a single city's simulated cycles move by about
// 12% (quartile spread) from seed to seed; summing over eight cities
// narrows that to about a third.
const (
	rideCities    = 8
	ridePipelines = 4
)

type rideBench struct {
	cities []*queries.Dataset
	want   [][]queries.QueryResult
}

func newRideshare(seed int64) bench {
	r := &rideBench{}
	for i := int64(0); i < rideCities; i++ {
		r.cities = append(r.cities, queries.Generate(queries.SmallScale(), seed*rideCities+i))
	}
	return r
}

func (r *rideBench) rows() int {
	n := 0
	for _, d := range r.cities {
		n += len(d.Rides) + len(d.Riders) + len(d.Drivers) + len(d.Locations) + len(d.RideReqs) + len(d.DriverStatus)
	}
	return n
}

func (r *rideBench) reference() error {
	r.want = nil
	for _, d := range r.cities {
		want, err := queries.RunAll(queries.NewCPU(), d)
		if err != nil {
			return fmt.Errorf("reference engine: %w", err)
		}
		r.want = append(r.want, want)
	}
	return nil
}

func (r *rideBench) invoke(traced bool) outcome {
	nq := len(queries.All())
	o := newOutcome(nq*len(r.cities), traced)
	eng := &engine{inner: queries.NewAurochs(ridePipelines)}
	if traced {
		eng.spans = map[string]*opSpan{}
	}
	got := make([][]queries.QueryResult, len(r.cities))
	errs := make([]error, len(r.cities))
	for i, d := range r.cities {
		start := time.Now()
		got[i], errs[i] = runQueries(eng, d, o.host)
		o.wall = append(o.wall, time.Since(start))
	}

	cycles := map[string]float64{}
	for i := range r.cities {
		if errs[i] != nil {
			o.fail(nq-len(got[i]), errs[i])
		}
		for _, e := range checkQueries(got[i], r.want[i]) {
			o.fail(1, e)
		}
		for _, q := range got[i] {
			c := q.Cost.Seconds * core.ClockHz
			o.cycles += c
			cycles[q.Query] += c
			o.sig = append(o.sig, fmt.Sprintf("city %d %s cost=%x", i, q.Query, math.Float64bits(q.Cost.Seconds)))
		}
	}
	if !traced {
		return o
	}
	for q, c := range cycles {
		o.sim.set("queries."+q+".sim_cycles", c)
	}
	var opHost, qHost float64
	for op, s := range eng.spans {
		p := "queries.op." + op + "."
		o.host[p+"host_s"] = s.host.Seconds()
		o.sim.set(p+"sim_cycles", s.cycles)
		o.sim.set(p+"calls", float64(s.calls))
		o.sim.set(p+"in_rows", float64(s.inRows))
		opHost += s.host.Seconds()
	}
	for q := range cycles {
		qHost += o.host["queries."+q+".host_s"]
	}
	o.host["queries.plan_self_s"] = qHost - opHost
	return o
}

// runQueries runs the nine queries on one city: queries.RunAll when host
// is nil, else the same loop with a span per query added into host.
func runQueries(eng *engine, d *queries.Dataset, host map[string]float64) ([]queries.QueryResult, error) {
	if host == nil {
		return queries.RunAll(eng, d)
	}
	var out []queries.QueryResult
	for _, q := range queries.All() {
		start := time.Now()
		res, err := q.Run(eng, d)
		host["queries."+q.Name+".host_s"] += time.Since(start).Seconds()
		if err != nil {
			return out, fmt.Errorf("%s on %s: %w", q.Name, eng.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// checkQueries compares each query's fingerprint and cardinality with the
// reference engine's.
func checkQueries(got, want []queries.QueryResult) []error {
	var errs []error
	for i, g := range got {
		if i >= len(want) {
			errs = append(errs, fmt.Errorf("%s: no reference result", g.Query))
			continue
		}
		if w := want[i]; g.Query != w.Query || g.Fingerprint != w.Fingerprint || g.Rows != w.Rows {
			errs = append(errs, fmt.Errorf("%s: fingerprint %x rows %d, reference %s has %x rows %d",
				g.Query, g.Fingerprint, g.Rows, w.Query, w.Fingerprint, w.Rows))
		}
	}
	return errs
}
