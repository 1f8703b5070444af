package spad

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// Property tests: the scratchpad pipeline, under any mix of operations and
// any reordering the allocator chooses, must be indistinguishable from a
// serial reference memory — atomics linearize, reads see every prior write
// of their own stream, and nothing is lost.

// TestPropertyFAATicketsAlwaysUnique: for any address distribution, FAA
// responses per address must be exactly {0, 1, ..., count-1}.
func TestPropertyFAATicketsAlwaysUnique(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%500 + 16
		rng := rand.New(rand.NewSource(seed))
		mem := NewMem(16, 64, 0)
		recs := make([]record.Rec, n)
		for i := range recs {
			recs[i] = record.Make(uint32(rng.Intn(32)), uint32(i))
		}
		spec := Spec{
			Op:   OpFAA,
			Addr: func(r *record.Rec) uint32 { return r.Get(0) },
			Data: func(*record.Rec, int) uint32 { return 1 },
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return true
			},
		}
		got, _ := runTileQuick(mem, spec, recs)
		if len(got) != n {
			return false
		}
		seen := map[[2]uint32]bool{}
		counts := map[uint32]uint32{}
		for _, r := range got {
			k := [2]uint32{r.Get(0), r.Get(2)}
			if seen[k] {
				return false // duplicate ticket at one address
			}
			seen[k] = true
			counts[r.Get(0)]++
		}
		for addr, c := range counts {
			if mem.Read(addr) != c {
				return false // final count must equal tickets issued
			}
			for tkt := uint32(0); tkt < c; tkt++ {
				if !seen[[2]uint32{addr, tkt}] {
					return false // tickets must be dense 0..c-1
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyScatterGatherRoundTrip: for any set of distinct addresses,
// writing then reading through separate tile runs returns the written data
// regardless of allocation order.
func TestPropertyScatterGatherRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := NewMem(16, 256, 0)
		n := rng.Intn(300) + 10
		perm := rng.Perm(mem.Words())[:n]
		writes := make([]record.Rec, n)
		for i, a := range perm {
			writes[i] = record.Make(uint32(a), rng.Uint32())
		}
		runTileQuick(mem, Spec{
			Op:    OpWrite,
			Width: 1,
			Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
			Data:  func(r *record.Rec, _ int) uint32 { return r.Get(1) },
		}, writes)
		reads := make([]record.Rec, n)
		for i, a := range perm {
			reads[i] = record.Make(uint32(a))
		}
		got, _ := runTileQuick(mem, Spec{
			Op:    OpRead,
			Width: 1,
			Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return true
			},
		}, reads)
		want := map[uint32]uint32{}
		for _, w := range writes {
			want[w.Get(0)] = w.Get(1)
		}
		for _, r := range got {
			if want[r.Get(0)] != r.Get(1) {
				return false
			}
		}
		return len(got) == n
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyModifyLinearizes: an arbitrary combiner (here a saturating
// add with a data-dependent ceiling) applied by many threads must land at
// the value a serial fold produces, for any thread interleaving.
func TestPropertyModifyLinearizes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(func(seed int64, ceilRaw uint8) bool {
		ceil := uint32(ceilRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		mem := NewMem(16, 64, 0)
		n := rng.Intn(400) + 50
		recs := make([]record.Rec, n)
		for i := range recs {
			recs[i] = record.Make(uint32(rng.Intn(8)), uint32(i))
		}
		runTileQuick(mem, Spec{
			Op:   OpModify,
			Addr: func(r *record.Rec) uint32 { return r.Get(0) },
			Modify: func(cur uint32, _ *record.Rec) uint32 {
				if cur >= ceil {
					return cur
				}
				return cur + 1
			},
			Apply: func(r *record.Rec, resp []uint32) bool { return true },
		}, recs)
		counts := map[uint32]uint32{}
		for _, r := range recs {
			counts[r.Get(0)]++
		}
		for addr, c := range counts {
			want := c
			if want > ceil {
				want = ceil
			}
			if mem.Read(addr) != want {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// runTileQuick is a light harness for property tests (no *testing.T).
func runTileQuick(mem *Mem, spec Spec, recs []record.Rec) ([]record.Rec, int64) {
	sys := sim.NewSystem()
	in := sys.NewLink("in", 8, 1)
	out := sys.NewLink("out", 8, 1)
	tile := NewTile(DefaultConfig("q"), mem, spec, in, out, sys.Stats())
	src := &vecSource{out: in, vecs: vectorize(recs)}
	snk := &vecSink{in: out}
	sys.Add(src)
	sys.Add(tile)
	sys.Add(snk)
	cycles, err := sys.Run(5_000_000)
	if err != nil {
		panic(err)
	}
	return snk.recs, cycles
}
