package fabric

import (
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// graphCase builds one graph instance and returns its sinks; the
// equivalence harness builds it once per run and demands bit-identical
// cycles, stats, and sink contents.
type graphCase struct {
	name  string
	build func() (*Graph, []*Sink)
}

func graphCases() []graphCase {
	return []graphCase{
		{name: "linear-map-filter-merge", build: func() (*Graph, []*Sink) {
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
			snk := NewSink("snk", out)
			g.Add(snk)
			return g, []*Sink{snk}
		}},
		{name: "countdown-loop", build: func() (*Graph, []*Sink) {
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
			snk := NewSink("snk", exit)
			g.Add(snk)
			return g, []*Sink{snk}
		}},
		{name: "spad-loop", build: func() (*Graph, []*Sink) {
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
			snk := NewSink("snk", exit)
			g.Add(snk)
			return g, []*Sink{snk}
		}},
		{name: "dram-gather-scatter", build: func() (*Graph, []*Sink) {
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
			snk := NewSink("snk", out)
			g.Add(snk)
			return g, []*Sink{snk}
		}},
		{name: "scan-append", build: func() (*Graph, []*Sink) {
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
			return g, nil
		}},
	}
}

type graphResult struct {
	cycles int64
	stats  string
	sinks  [][]record.Rec
}

func runCase(t *testing.T, c graphCase, noBatch bool) graphResult {
	t.Helper()
	g, sinks := c.build()
	g.NoBatch = noBatch
	cycles, err := g.Run(2_000_000)
	if err != nil {
		t.Fatalf("%s noBatch=%v: %v", c.name, noBatch, err)
	}
	res := graphResult{cycles: cycles, stats: g.Stats().String()}
	for _, s := range sinks {
		res.sinks = append(res.sinks, s.Records())
	}
	return res
}

// TestGraphParallelEquivalence: every graph shape produces bit-identical
// cycles, stats, and outputs on the scalar tick path, on the batch tick
// path, and on a fresh rebuild run again — the simulated result depends
// only on the graph, never on how the host steps it.
func TestGraphParallelEquivalence(t *testing.T) {
	for _, c := range graphCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := runCase(t, c, true)
			for i, got := range []graphResult{runCase(t, c, false), runCase(t, c, false)} {
				label := [...]string{"batch", "batch rebuild"}[i]
				if got.cycles != ref.cycles {
					t.Errorf("%s: cycles %d != scalar %d", label, got.cycles, ref.cycles)
				}
				if got.stats != ref.stats {
					t.Errorf("%s: stats differ\nscalar:\n%s\ngot:\n%s", label, ref.stats, got.stats)
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
		})
	}
}
