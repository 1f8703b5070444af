package spad

import (
	"math/rand"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// runTile pushes recs through a single scratchpad stream pipeline and
// returns the output records plus elapsed cycles.
func runTile(t *testing.T, cfg Config, mem *Mem, spec Spec, recs []record.Rec) ([]record.Rec, int64) {
	t.Helper()
	sys := sim.NewSystem()
	in := sys.NewLink("in", 8, 1)
	out := sys.NewLink("out", 8, 1)
	tile := NewTile(cfg, mem, spec, in, out, sys.Stats())
	src := &vecSource{out: in, vecs: record.Vectorize(recs)}
	snk := &vecSink{in: out}
	sys.Add(src)
	sys.Add(tile)
	sys.Add(snk)
	cycles, err := sys.Run(1_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sys.Stats())
	}
	return snk.recs, cycles
}

type vecSource struct {
	out  *sim.Link
	vecs []record.Vector
	pos  int
	eos  bool
}

func (s *vecSource) Name() string { return "src" }
func (s *vecSource) Done() bool   { return s.eos }
func (s *vecSource) Tick(c int64) {
	if s.eos || !s.out.CanPush() {
		return
	}
	if s.pos < len(s.vecs) {
		s.out.Push(c, sim.Flit{Vec: s.vecs[s.pos]})
		s.pos++
		return
	}
	s.out.Push(c, sim.Flit{EOS: true})
	s.eos = true
}

type vecSink struct {
	in   *sim.Link
	recs []record.Rec
	eos  bool
}

func (s *vecSink) Name() string { return "snk" }
func (s *vecSink) Done() bool   { return s.eos }
func (s *vecSink) Tick(c int64) {
	for !s.in.Empty() {
		f := s.in.Pop()
		if f.EOS {
			s.eos = true
			return
		}
		s.recs = append(s.recs, f.Vec.Records()...)
	}
}

func TestGatherReadsCorrectWords(t *testing.T) {
	mem := NewMem(16, 64, 0)
	for i := 0; i < mem.Words(); i++ {
		mem.Write(uint32(i), uint32(i*3))
	}
	spec := Spec{
		Op:    OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Apply: func(r *record.Rec, resp []uint32) bool {
			*r = r.Append(resp[0])
			return true
		},
	}
	var recs []record.Rec
	for i := 0; i < 200; i++ {
		recs = append(recs, record.Make(uint32(rand.Intn(mem.Words()))))
	}
	got, _ := runTile(t, DefaultConfig("g"), mem, spec, recs)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for _, r := range got {
		if r.Get(1) != r.Get(0)*3 {
			t.Fatalf("addr %d read %d, want %d", r.Get(0), r.Get(1), r.Get(0)*3)
		}
	}
}

func TestWideGatherStaysInOneBank(t *testing.T) {
	// lineShift=2 keeps a 4-word node inside one bank.
	mem := NewMem(8, 64, 2)
	for i := 0; i < mem.Words(); i++ {
		mem.Write(uint32(i), uint32(i))
	}
	spec := Spec{
		Op:    OpRead,
		Width: 4,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) * 4 },
		Apply: func(r *record.Rec, resp []uint32) bool {
			for _, w := range resp {
				*r = r.Append(w)
			}
			return true
		},
	}
	var recs []record.Rec
	for i := 0; i < 50; i++ {
		recs = append(recs, record.Make(uint32(i)))
	}
	got, _ := runTile(t, DefaultConfig("w"), mem, spec, recs)
	for _, r := range got {
		base := r.Get(0) * 4
		for k := 0; k < 4; k++ {
			if r.Get(1+k) != base+uint32(k) {
				t.Fatalf("node %d word %d = %d", r.Get(0), k, r.Get(1+k))
			}
		}
	}
}

func TestScatterWritesAllWords(t *testing.T) {
	mem := NewMem(16, 64, 0)
	spec := Spec{
		Op:    OpWrite,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Data:  func(r *record.Rec, _ int) uint32 { return r.Get(1) },
	}
	var recs []record.Rec
	for i := 0; i < 100; i++ {
		recs = append(recs, record.Make(uint32(i), uint32(i)+1000))
	}
	got, _ := runTile(t, DefaultConfig("s"), mem, spec, recs)
	if len(got) != 100 {
		t.Fatalf("threads lost: %d", len(got))
	}
	for i := 0; i < 100; i++ {
		if v := mem.Read(uint32(i)); v != uint32(i)+1000 {
			t.Fatalf("mem[%d]=%d", i, v)
		}
	}
}

// TestFAAAtomicity: N threads increment one counter; every thread must see
// a unique pre-add value and the counter must end at N. This is the
// property that makes the partition-count pipeline (paper fig. 7b) correct.
func TestFAAAtomicity(t *testing.T) {
	mem := NewMem(16, 64, 0)
	spec := Spec{
		Op:   OpFAA,
		Addr: func(*record.Rec) uint32 { return 5 },
		Data: func(*record.Rec, int) uint32 { return 1 },
		Apply: func(r *record.Rec, resp []uint32) bool {
			*r = r.Append(resp[0])
			return true
		},
	}
	const n = 128
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	got, _ := runTile(t, DefaultConfig("faa"), mem, spec, recs)
	if mem.Read(5) != n {
		t.Fatalf("counter=%d, want %d", mem.Read(5), n)
	}
	seen := make(map[uint32]bool)
	for _, r := range got {
		v := r.Get(1)
		if seen[v] {
			t.Fatalf("duplicate FAA ticket %d — atomicity violated", v)
		}
		seen[v] = true
	}
}

// TestCASExactlyOneWinner: all threads CAS the same location from 0 to
// their id; exactly one must succeed.
func TestCASExactlyOneWinner(t *testing.T) {
	mem := NewMem(16, 64, 0)
	spec := Spec{
		Op:   OpCAS,
		Addr: func(*record.Rec) uint32 { return 9 },
		Data: func(r *record.Rec, i int) uint32 {
			if i == 0 {
				return 0 // expected
			}
			return r.Get(0) // new
		},
		Apply: func(r *record.Rec, resp []uint32) bool {
			*r = r.Append(resp[0])
			return true
		},
	}
	recs := make([]record.Rec, 64)
	for i := range recs {
		recs[i] = record.Make(uint32(i) + 1)
	}
	got, _ := runTile(t, DefaultConfig("cas"), mem, spec, recs)
	winners := 0
	for _, r := range got {
		if r.Get(1) == 0 { // observed the initial value => CAS succeeded
			winners++
			if mem.Read(9) != r.Get(0) {
				// The winner's value must be what is stored unless a later
				// thread won... but only one can observe 0.
				t.Fatalf("stored %d, winner wrote %d", mem.Read(9), r.Get(0))
			}
		}
	}
	if winners != 1 {
		t.Fatalf("winners=%d, want exactly 1", winners)
	}
}

// TestBankConflictSerialization: requests hammering one bank take ~N cycles
// to grant; spread across 16 banks they take ~N/16.
func TestBankConflictSerialization(t *testing.T) {
	mkSpec := func() Spec {
		return Spec{
			Op:    OpRead,
			Width: 1,
			Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
			Apply: func(r *record.Rec, resp []uint32) bool { return true },
		}
	}
	const n = 512
	same := make([]record.Rec, n)
	spread := make([]record.Rec, n)
	for i := range same {
		same[i] = record.Make(uint32(0)) // all bank 0
		spread[i] = record.Make(uint32(i % 16))
	}
	_, cSame := runTile(t, DefaultConfig("b0"), NewMem(16, 64, 0), mkSpec(), same)
	_, cSpread := runTile(t, DefaultConfig("b1"), NewMem(16, 64, 0), mkSpec(), spread)
	if cSame < n {
		t.Fatalf("same-bank run finished in %d cycles; bank can serve at most 1/cycle", cSame)
	}
	if cSpread*4 > cSame {
		t.Fatalf("spread (%d cyc) should be ≫ faster than same-bank (%d cyc)", cSpread, cSame)
	}
}

// TestReorderBeatsInOrder: with a conflict-heavy address stream, Aurochs'
// reordering pipeline must outperform Capstan's in-order dequeue even
// though the in-order queues are twice as deep (paper §III-B).
func TestReorderBeatsInOrder(t *testing.T) {
	spec := func() Spec {
		return Spec{
			Op:    OpRead,
			Width: 1,
			Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
			Apply: func(r *record.Rec, resp []uint32) bool { return true },
		}
	}
	rng := rand.New(rand.NewSource(7))
	const n = 2048
	recs := make([]record.Rec, n)
	for i := range recs {
		// Skewed address distribution: heavy conflicts on a few banks.
		b := uint32(rng.Intn(4))
		recs[i] = record.Make(b + 16*uint32(rng.Intn(4)))
	}
	cp := func(r []record.Rec) []record.Rec { return append([]record.Rec(nil), r...) }

	outR, cycR := runTile(t, Config{Name: "reorder", ForwardRMW: true}, NewMem(16, 64, 0), spec(), cp(recs))
	outI, cycI := runTile(t, Config{Name: "inorder", InOrder: true, ForwardRMW: true}, NewMem(16, 64, 0), spec(), cp(recs))
	if len(outR) != n || len(outI) != n {
		t.Fatalf("lost threads: reorder=%d inorder=%d", len(outR), len(outI))
	}
	if cycR > cycI {
		t.Errorf("reordering (%d cyc) should not be slower than in-order (%d cyc)", cycR, cycI)
	}
}

// TestInOrderPreservesVectorOrder: Capstan mode must emit vectors in
// arrival order even under conflicts.
func TestInOrderPreservesVectorOrder(t *testing.T) {
	mem := NewMem(16, 64, 0)
	spec := Spec{
		Op:    OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(1) },
		Apply: func(r *record.Rec, resp []uint32) bool { return true },
	}
	rng := rand.New(rand.NewSource(3))
	const n = 256
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i), uint32(rng.Intn(8))) // conflicty
	}
	got, _ := runTile(t, Config{Name: "ord", InOrder: true}, mem, spec, recs)
	if len(got) != n {
		t.Fatalf("got %d", len(got))
	}
	for i, r := range got {
		if r.Get(0) != uint32(i) {
			t.Fatalf("in-order mode broke order at %d: got id %d", i, r.Get(0))
		}
	}
}

func TestRMWForwardingThroughput(t *testing.T) {
	// Back-to-back FAA to one bank: with forwarding ~1/cycle, without ~1/2.
	run := func(fw bool) int64 {
		mem := NewMem(16, 64, 0)
		spec := Spec{
			Op:    OpFAA,
			Addr:  func(*record.Rec) uint32 { return 0 },
			Data:  func(*record.Rec, int) uint32 { return 1 },
			Apply: func(r *record.Rec, resp []uint32) bool { return true },
		}
		recs := make([]record.Rec, 256)
		for i := range recs {
			recs[i] = record.Make(uint32(i))
		}
		_, cyc := runTile(t, Config{Name: "fw", ForwardRMW: fw}, mem, spec, recs)
		return cyc
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("forwarding (%d cyc) must beat no-forwarding (%d cyc)", with, without)
	}
}

func TestMemBankMapping(t *testing.T) {
	m := NewMem(16, 64, 0)
	if m.Bank(0) != 0 || m.Bank(1) != 1 || m.Bank(16) != 0 {
		t.Error("word-interleave mapping wrong")
	}
	m2 := NewMem(8, 64, 2)
	if m2.Bank(0) != 0 || m2.Bank(3) != 0 || m2.Bank(4) != 1 {
		t.Error("line-interleave mapping wrong")
	}
}

func TestMemPanics(t *testing.T) {
	// tile builds a scratchpad tile over banks banks with lanes lanes; the
	// allocator's bid masks are 64 bits wide.
	tile := func(banks, lanes int) func() {
		return func() {
			sys := sim.NewSystem()
			cfg := DefaultConfig("t")
			cfg.Lanes = lanes
			spec := Spec{Op: OpRead, Addr: func(*record.Rec) uint32 { return 0 }}
			NewTile(cfg, NewMem(banks, 64, 0), spec, sys.NewLink("in", 8, 1), sys.NewLink("out", 8, 1), sys.Stats())
		}
	}
	tile(64, 64)() // the widest geometry the masks hold builds
	for name, fn := range map[string]func(){
		"banks-not-pow2":     func() { NewMem(6, 64, 0) },
		"zero-words":         func() { NewMem(8, 0, 0) },
		"tile-over-64-banks": tile(128, 16),
		"tile-over-64-lanes": tile(16, 65),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// tileBufProbe watches a Tile's response-side buffers from inside the cycle
// loop, recording the identity of every backing array they ever live in.
// Both fields it samples were reallocation hot spots the hotalloc prover
// surfaced: ready used to slide off the front (ready = ready[n:]) until
// append reallocated it, and in-order ROB slots were made fresh per vector.
type tileBufProbe struct {
	tile         *Tile
	readyBacking map[*record.Rec]bool
	robBacking   map[*record.Rec]bool
	robSeqs      int
	lastSeq      int64
}

func (p *tileBufProbe) Name() string { return "tileprobe" }
func (p *tileBufProbe) Done() bool   { return true }

func (p *tileBufProbe) Tick(int64) {
	if id := p.tile.ready.BackingID(); id != nil {
		p.readyBacking[id] = true
	}
	for seq, slots := range p.tile.rob {
		if len(slots) > 0 {
			p.robBacking[&slots[0]] = true
		}
		if seq >= p.lastSeq {
			p.lastSeq = seq + 1
			p.robSeqs++
		}
	}
}

// runTileProbed is runTile with the probe registered alongside the pipeline.
func runTileProbed(t *testing.T, cfg Config, spec Spec, recs []record.Rec) *tileBufProbe {
	t.Helper()
	sys := sim.NewSystem()
	in := sys.NewLink("in", 8, 1)
	out := sys.NewLink("out", 8, 1)
	tile := NewTile(cfg, NewMem(16, 64, 0), spec, in, out, sys.Stats())
	probe := &tileBufProbe{tile: tile, readyBacking: map[*record.Rec]bool{}, robBacking: map[*record.Rec]bool{}}
	sys.Add(&vecSource{out: in, vecs: record.Vectorize(recs)})
	sys.Add(tile)
	sys.Add(&vecSink{in: out})
	sys.Add(probe)
	if _, err := sys.Run(1_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, sys.Stats())
	}
	return probe
}

func conflictyRecs(n int) []record.Rec {
	rng := rand.New(rand.NewSource(11))
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(rng.Intn(4)) + 16*uint32(rng.Intn(4)))
	}
	return recs
}

// TestTileReadyBufferStaysPut: in reorder mode, the ready compactor reuses
// one backing array at steady state — growth to the backpressure bound is
// the only allocation, so the distinct-backing census stays tiny while
// thousands of records flow through.
func TestTileReadyBufferStaysPut(t *testing.T) {
	spec := Spec{
		Op:    OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Apply: func(r *record.Rec, resp []uint32) bool { return true },
	}
	probe := runTileProbed(t, Config{Name: "readyprobe"}, spec, conflictyRecs(4096))
	if len(probe.readyBacking) == 0 {
		t.Fatal("probe never saw the ready buffer populated")
	}
	// Pure doubling growth to the 4*Lanes backpressure bound allows at most
	// ~7 arrays; the pre-fix slide-then-reallocate pattern produced hundreds.
	if got := len(probe.readyBacking); got > 8 {
		t.Errorf("ready buffer lived in %d distinct backing arrays; compaction requires a handful at most", got)
	}
}

// TestTileROBSlotsRecycle: in-order mode recycles retired ROB slot slices
// through a freelist — the number of distinct slot arrays is bounded by the
// in-flight window, not by the number of vectors processed.
func TestTileROBSlotsRecycle(t *testing.T) {
	spec := Spec{
		Op:    OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Apply: func(r *record.Rec, resp []uint32) bool { return true },
	}
	probe := runTileProbed(t, Config{Name: "robprobe", InOrder: true}, spec, conflictyRecs(4096))
	if probe.robSeqs < 64 {
		t.Fatalf("probe saw only %d ROB sequences; want a long run", probe.robSeqs)
	}
	// The reorder window holds a handful of vectors; without the freelist
	// every sequence allocated a fresh slot slice (one per vector).
	if got := len(probe.robBacking); got > 16 {
		t.Errorf("ROB slots lived in %d distinct backing arrays across %d sequences; freelist recycling requires a bounded set",
			got, probe.robSeqs)
	}
}
