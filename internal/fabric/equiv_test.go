package fabric

import (
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// graphCase builds one graph instance; the equivalence harness builds it
// once per run and demands bit-identical cycles, stats, DRAM bytes and
// sink contents.
type graphCase struct {
	name  string
	build func() *Graph
}

func graphCases() []graphCase {
	return []graphCase{
		{name: "linear-map-filter-merge", build: func() *Graph {
			g := NewGraph()
			in, even, odd, dbl, out := g.Link("in"), g.Link("even"), g.Link("odd"), g.Link("dbl"), g.Link("out")
			g.Add(NewSource("src", seqRecs(400), in))
			g.Add(NewFilter("parity", func(r *record.Rec) int {
				return int(r.Get(0) % 2)
			}, in, []Output{{Link: even}, {Link: odd}}, nil))
			g.Add(NewMap("double", func(r *record.Rec) {
				*r = r.Set(0, r.Get(0)*2)
			}, even, dbl))
			g.Add(NewMerge("join", dbl, odd, out))
			g.Add(NewSink("snk", out))
			return g
		}},
		{name: "countdown-loop", build: func() *Graph {
			g := NewGraph()
			ext, body, dec, exit := g.Link("ext"), g.Link("body"), g.Link("dec"), g.Link("exit")
			recirc := g.Link("recirc")
			var recs []record.Rec
			for i := 0; i < 300; i++ {
				recs = append(recs, record.Make(uint32(i), uint32(i%23)))
			}
			ctl := NewLoopCtl()
			g.Add(NewSource("src", recs, ext))
			g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
			g.Add(NewMap("dec", func(r *record.Rec) {
				if c := r.Get(1); c > 0 {
					r.Put(1, c-1)
				}
			}, body, dec))
			g.Add(NewFilter("exit?", func(r *record.Rec) int {
				if r.Get(1) == 0 {
					return 0
				}
				return 1
			}, dec, []Output{
				{Link: exit, Exit: true},
				{Link: recirc, NoEOS: true},
			}, ctl))
			g.Add(NewSink("snk", exit))
			return g
		}},
		{name: "spad-loop", build: func() *Graph {
			const nil32 = 0xFFFF
			mem := spad.NewMem(16, 256, 1)
			for k := uint32(0); k < 8; k++ {
				for j := uint32(0); j <= k; j++ {
					idx := k + 8*j
					mem.Write(2*idx, 100*k+j)
					if j == k {
						mem.Write(2*idx+1, nil32)
					} else {
						mem.Write(2*idx+1, idx+8)
					}
				}
			}
			g := NewGraph()
			ext, body, fetched := g.Link("ext"), g.Link("body"), g.Link("fetched")
			recirc, exit := g.Link("recirc"), g.Link("exit")
			ctl := NewLoopCtl()
			var recs []record.Rec
			for k := uint32(0); k < 8; k++ {
				recs = append(recs, record.Make(k, k, 0))
			}
			g.Add(NewSource("src", recs, ext))
			g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
			g.Add(spad.NewTile(spad.DefaultConfig("nodes"), mem, spad.Spec{
				Op:    spad.OpRead,
				Width: 2,
				Addr:  func(r *record.Rec) uint32 { return 2 * r.Get(1) },
				Apply: func(r *record.Rec, resp []uint32) bool {
					r.Put(2, resp[0])
					r.Put(1, resp[1])
					return true
				},
			}, body, fetched, g.Stats()))
			g.Add(NewFilter("end?", func(r *record.Rec) int {
				if r.Get(1) == nil32 {
					return 0
				}
				return 1
			}, fetched, []Output{
				{Link: exit, Exit: true},
				{Link: recirc, NoEOS: true},
			}, ctl))
			g.Add(NewSink("snk", exit))
			return g
		}},
		{name: "dram-gather-scatter", build: func() *Graph {
			h := dram.New(dram.DefaultConfig())
			for i := uint32(0); i < 1000; i++ {
				h.WriteWord(i, i*5)
			}
			g := NewGraph()
			g.AttachHBM(h)
			in, mid, out := g.Link("in"), g.Link("mid"), g.Link("out")
			g.Add(NewSource("src", seqRecs(300), in))
			NewDRAMNode(g, "gather", spad.Spec{
				Op:    spad.OpRead,
				Width: 1,
				Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
				Apply: func(r *record.Rec, resp []uint32) bool {
					*r = r.Append(resp[0])
					return true
				},
			}, in, mid)
			NewDRAMNode(g, "scatter", spad.Spec{
				Op:    spad.OpWrite,
				Width: 1,
				Addr:  func(r *record.Rec) uint32 { return 2000 + r.Get(0) },
				Data:  func(r *record.Rec, _ int) uint32 { return r.Get(1) + 1 },
				// Each record writes its own key-indexed slot; no collisions.
				DisjointAddrs: true,
			}, mid, out)
			g.Add(NewSink("snk", out))
			return g
		}},
		{name: "scan-append", build: func() *Graph {
			h := dram.New(dram.DefaultConfig())
			// Materialize [k, v] records, then stream scan → append.
			words := make([]uint32, 0, 1200)
			for i := uint32(0); i < 600; i++ {
				words = append(words, i, i*3)
			}
			h.LoadWords(4096, words)
			g := NewGraph()
			g.AttachHBM(h)
			a := g.Link("a")
			NewDRAMScan(g, "scan", []Extent{{Addr: 4096, Words: len(words)}}, 2, a)
			NewDRAMAppend(g, "app", 1<<21, 2, a)
			return g
		}},
		{name: "tree-walk-1block", build: func() *Graph { return treeWalkGraph(1) }},
		{name: "tree-walk-2block", build: func() *Graph { return treeWalkGraph(2) }},
	}
}

// Tree-walk fixture layout: a complete 4-ary tree of depth 4 stored as
// one 5-word child block per node ([child count, child ids...]) and one
// 2-word weight block per node in a second region.
const (
	twNodes      = 1 + 4 + 16 + 64 + 256
	twChildBase  = 0
	twWeightBase = 1 << 14
	twSpillBase  = 1 << 20
)

// treeWalkGraph wires the tree-walk loop — LoopMerge, DRAMExpand fetching
// each thread's child block (and with blocks=2 its weight block), route
// Filter, SpillQueue on the recirculating path — over a shallow-queued HBM
// so fetches are refused and the on-chip spill segment overflows.
func treeWalkGraph(blocks int) *Graph {
	cfg := dram.DefaultConfig()
	cfg.QueueDepth = 4
	h := dram.New(cfg)
	for i := uint32(0); i < twNodes; i++ {
		if first := 4*i + 1; first < twNodes {
			h.LoadWords(twChildBase+5*i, []uint32{4, first, first + 1, first + 2, first + 3})
		}
		h.LoadWords(twWeightBase+2*i, []uint32{i * 3, 1})
	}
	g := NewGraph()
	g.AttachHBM(h)
	ext, body, walked := g.Link("ext"), g.Link("body"), g.Link("walked")
	recirc, recircQ, found := g.Link("recirc"), g.Link("recircQ"), g.Link("found")
	ctl := NewLoopCtl()
	// Threads are [ptr, mark, acc]; start them at the root and the first
	// level so several walks overlap in the loop.
	var threads []record.Rec
	for i := uint32(0); i < 40; i++ {
		threads = append(threads, record.Make(i%5, 0, 0))
	}
	g.Add(NewSource("src", threads, ext))
	g.Add(NewLoopMerge("entry", recircQ, ext, body, ctl))
	fetches := []Fetch{
		{Words: 5, Addr: func(r record.Rec) uint32 { return twChildBase + 5*r.Get(0) }},
		{Words: 2, Addr: func(r record.Rec) uint32 { return twWeightBase + 2*r.Get(0) }},
	}
	NewDRAMExpand(g, "fetch", fetches[:blocks], func(out []record.Rec, r record.Rec, b [][]uint32) []record.Rec {
		acc := r.Get(2) + 1
		if len(b) == 2 {
			acc += b[1][0] * b[1][1]
		}
		children := b[0]
		if children[0] == 0 {
			return append(out, record.Make(r.Get(0), 1, acc))
		}
		for _, c := range children[1 : 1+children[0]] {
			out = append(out, record.Make(c, 0, acc))
		}
		return out
	}, ctl, body, walked)
	g.Add(NewFilter("route", func(r *record.Rec) int {
		if r.Get(1) == 1 {
			return 0
		}
		return 1
	}, walked, []Output{
		{Link: found, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	NewSpillQueue(g, "spill", twSpillBase, 3, 16, recirc, recircQ)
	g.Add(NewSink("snk", found))
	return g
}

type graphResult struct {
	cycles int64
	stats  string
	dram   int64
	sinks  [][]record.Rec
}

// runGraph runs a checked graph with idle skipping or, with polling set,
// on the polling reference (every component ticks every cycle), and
// collects what the simulated contract pins: cycles, every Stats counter,
// DRAM bytes and the contents of every sink.
func runGraph(t *testing.T, name string, g *Graph, polling bool) graphResult {
	t.Helper()
	if err := g.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cycles, err := g.Sys.RunWith(2_000_000, sim.RunOptions{NoIdleSkip: polling})
	if err != nil {
		t.Fatalf("%s polling=%v: %v", name, polling, err)
	}
	res := graphResult{cycles: cycles, stats: g.Stats().String()}
	if g.HBM != nil {
		res.dram = g.HBM.BytesMoved()
	}
	for _, c := range g.Sys.Components() {
		switch s := c.(type) {
		case *Sink:
			res.sinks = append(res.sinks, s.Records())
		case *slowSink:
			res.sinks = append(res.sinks, s.recs)
		}
	}
	return res
}

// diffResults reports every way got departs from the polling reference.
func diffResults(t *testing.T, label string, ref, got graphResult) {
	t.Helper()
	if got.cycles != ref.cycles {
		t.Errorf("%s: cycles %d != polling %d", label, got.cycles, ref.cycles)
	}
	if got.stats != ref.stats {
		t.Errorf("%s: stats differ\npolling:\n%s\ngot:\n%s", label, ref.stats, got.stats)
	}
	if got.dram != ref.dram {
		t.Errorf("%s: DRAM bytes %d != polling %d", label, got.dram, ref.dram)
	}
	if len(got.sinks) != len(ref.sinks) {
		t.Fatalf("%s: sink count differs", label)
	}
	for s := range ref.sinks {
		if len(got.sinks[s]) != len(ref.sinks[s]) {
			t.Errorf("%s sink %d: %d records != %d", label, s, len(got.sinks[s]), len(ref.sinks[s]))
			continue
		}
		for j := range ref.sinks[s] {
			if got.sinks[s][j] != ref.sinks[s][j] {
				t.Errorf("%s sink %d record %d differs", label, s, j)
				break
			}
		}
	}
}

// TestGraphIdleSkipEquivalence: every graph shape produces bit-identical
// cycles, stats, DRAM bytes and outputs with idle skipping, on the polling
// reference, and on a fresh rebuild run with idle skipping again — the
// simulated result depends only on the graph, never on which components
// the host skips.
func TestGraphIdleSkipEquivalence(t *testing.T) {
	for _, c := range graphCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(polling bool) graphResult {
				return runGraph(t, c.name, c.build(), polling)
			}
			ref := run(true)
			diffResults(t, "idle-skip", ref, run(false))
			diffResults(t, "idle-skip rebuild", ref, run(false))
		})
	}
}
