package spad

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// traceSource pushes seeded random request vectors: sparse and dense
// masks, with random idle cycles between them.
type traceSource struct {
	out  *sim.Link
	rng  *rand.Rand
	vecs []record.Vector
	pos  int
	eos  bool
}

func (s *traceSource) Name() string { return "src" }
func (s *traceSource) Done() bool   { return s.eos }
func (s *traceSource) Tick(c int64) {
	if s.eos || !s.out.CanPush() || s.rng.Intn(8) == 0 {
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

// traceSink hashes every output flit (cycle, mask, lanes). It pops with a
// seeded random stall and stops for 24 of every 64 cycles, so the tile sees
// output backpressure long enough to fill its response window.
type traceSink struct {
	in  *sim.Link
	rng *rand.Rand
	h   hash.Hash64
	eos bool
}

func (s *traceSink) Name() string { return "snk" }
func (s *traceSink) Done() bool   { return s.eos }
func (s *traceSink) Tick(c int64) {
	if c%64 < 24 {
		return
	}
	for !s.eos && !s.in.Empty() && s.rng.Intn(3) != 0 {
		f := s.in.Pop()
		if f.EOS {
			s.eos = true
			return
		}
		hashWords(s.h, uint64(c), uint64(f.Vec.Mask))
		for i := 0; i < record.NumLanes; i++ {
			if f.Vec.Valid(i) {
				r := &f.Vec.Lane[i]
				hashWords(s.h, uint64(r.N))
				for _, w := range r.F[:r.N] {
					hashWords(s.h, uint64(w))
				}
			}
		}
	}
}

func hashWords(h hash.Hash64, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// traceVecs builds n seeded request vectors over words addresses: half of
// the requests hit a few hot addresses (bank conflicts, same-address
// atomics), the rest are uniform. Field 0 is the address, field 1 a data
// word, field 2 a unique id.
func traceVecs(rng *rand.Rand, n, words, width int) []record.Vector {
	hot := make([]uint32, 3)
	for i := range hot {
		hot[i] = uint32(rng.Intn(words - width + 1))
	}
	vecs := make([]record.Vector, n)
	id := uint32(0)
	for v := range vecs {
		mask := uint16(rng.Intn(1 << record.NumLanes))
		if rng.Intn(3) == 0 {
			mask = 1<<record.NumLanes - 1
		}
		if mask == 0 {
			mask = 1
		}
		vecs[v].Mask = mask
		for i := 0; i < record.NumLanes; i++ {
			addr := uint32(rng.Intn(words - width + 1))
			if rng.Intn(2) == 0 {
				addr = hot[rng.Intn(len(hot))]
			}
			vecs[v].Lane[i] = record.Make(addr, uint32(rng.Intn(8)), id)
			id++
		}
	}
	return vecs
}

// traceSpec returns the stream spec of one pinned op variant.
func traceSpec(op Op, width int, lossy bool) Spec {
	addr := func(r *record.Rec) uint32 { return r.Get(0) }
	appendResp := func(r *record.Rec, resp []uint32) bool {
		for _, w := range resp {
			*r = r.Append(w)
		}
		return true
	}
	s := Spec{Op: op, Width: width, Addr: addr, Apply: appendResp}
	switch op {
	case OpWrite:
		s.Data = func(r *record.Rec, i int) uint32 { return r.Get(1) + uint32(i)*7 + r.Get(2) }
		s.Apply = nil
	case OpCAS:
		s.Data = func(r *record.Rec, i int) uint32 {
			if i == 0 {
				return r.Get(1) % 4
			}
			return r.Get(2)
		}
	case OpFAA:
		s.Data = func(r *record.Rec, _ int) uint32 { return r.Get(1) + 1 }
	case OpXCHG:
		s.Data = func(r *record.Rec, _ int) uint32 { return r.Get(2) }
	case OpModify:
		s.Modify = func(cur uint32, r *record.Rec) uint32 { return cur*3 + r.Get(1) }
	}
	if lossy {
		s.Lossy = true
		s.Apply = func(r *record.Rec, resp []uint32) bool {
			if resp[0]%3 == 0 {
				return false
			}
			return appendResp(r, resp)
		}
	}
	return s
}

// traceDigest runs every pinned tile configuration over seeded streams of
// one op variant and hashes each output flit (cycle, mask, lanes), every
// Stats counter of the tile, the elapsed cycles and the final memory.
func traceDigest(t *testing.T, op Op, width int, lossy bool) uint64 {
	t.Helper()
	h := fnv.New64a()
	seed := int64(1)
	for _, lanes := range []int{4, 8, 16} {
		for _, banks := range []int{16, 64} {
			for _, mode := range []string{"aurochs", "inorder", "nofwd", "inorder-nofwd"} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				mem := NewMem(banks, 16, 0)
				for i := 0; i < mem.Words(); i++ {
					mem.Write(uint32(i), uint32(rng.Intn(16)))
				}
				cfg := Config{
					Name:       "tp",
					Lanes:      lanes,
					InOrder:    mode == "inorder" || mode == "inorder-nofwd",
					ForwardRMW: mode == "aurochs" || mode == "inorder",
				}
				sys := sim.NewSystem()
				in := sys.NewLink("in", 4, 1)
				out := sys.NewLink("out", 2, 1)
				sys.Add(&traceSource{out: in, rng: rand.New(rand.NewSource(seed * 31)), vecs: traceVecs(rng, 60, mem.Words(), width)})
				sys.Add(NewTile(cfg, mem, traceSpec(op, width, lossy), in, out, sys.Stats()))
				sys.Add(&traceSink{in: out, rng: rand.New(rand.NewSource(seed * 37)), h: h})
				cycles, err := sys.Run(1_000_000)
				if err != nil {
					t.Fatalf("lanes=%d banks=%d %s: %v", lanes, banks, mode, err)
				}
				hashWords(h, uint64(cycles))
				for _, name := range sys.Stats().Names() {
					h.Write([]byte(name))
					hashWords(h, uint64(sys.Stats().Get(name)))
				}
				for _, w := range mem.Snapshot(0, mem.Words()) {
					hashWords(h, uint64(w))
				}
			}
		}
	}
	return h.Sum64()
}

// TestTileTracePinned pins the scratchpad tile's complete observable
// behaviour: the cycle and contents of every output flit and every Stats
// counter, for Lanes 4/8/16, 16 and 64 banks, both dequeue disciplines,
// with and without RMW forwarding, widths 1–4, every op and a lossy Apply.
// A host-side rework of the allocator, queues or response path must leave
// every digest unchanged.
func TestTileTracePinned(t *testing.T) {
	cases := []struct {
		op    Op
		width int
		lossy bool
		want  uint64
	}{
		{OpRead, 1, false, 0xf7b663531d973c7c},
		{OpRead, 2, false, 0x2849a9fd40611f04},
		{OpRead, 3, false, 0x1c47eb7e7d11f4bb},
		{OpRead, 4, false, 0xbae797468ff22399},
		{OpWrite, 1, false, 0x26a45eaf1da19725},
		{OpWrite, 2, false, 0x03a6fc6d37da4d20},
		{OpWrite, 3, false, 0x8ffd195534143b4c},
		{OpWrite, 4, false, 0xc7fa0caed39a052f},
		{OpCAS, 1, false, 0x3c8593fee762a51e},
		{OpFAA, 1, false, 0xb45016579c2547a7},
		{OpXCHG, 1, false, 0x536e39fd7cbda5dc},
		{OpModify, 1, false, 0xa11a17800f76b73b},
		{OpRead, 2, true, 0x3b006f26b67d736d},
		{OpFAA, 1, true, 0x5028daa23695b257},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-w%d", tc.op, tc.width)
		if tc.lossy {
			name += "-lossy"
		}
		t.Run(name, func(t *testing.T) {
			if got := traceDigest(t, tc.op, tc.width, tc.lossy); got != tc.want {
				t.Errorf("digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
