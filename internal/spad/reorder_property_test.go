package spad

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// This file is the dynamic half of the reorder-safety contract: for every
// RMW the static prover classifies as order-insensitive (OpFAA, and
// OpModify through each shipped CombineFn), running the same workload
// through the reordering pipeline and through Capstan's in-order dequeue
// discipline must produce (a) bit-identical final memory and (b) output
// records that are a permutation of each other. The one op whose *response*
// multiset must additionally be bit-identical is OpFAA with unit deltas:
// its observed pre-add values are exactly the dense ticket set {0..c-1}
// per address under every interleaving (see TestPropertyFAAResponsesOrderFree).

// runTileCfg runs one workload through a tile under an explicit Config —
// the property-test twin of runTileQuick with the discipline selectable.
func runTileCfg(cfg Config, mem *Mem, spec Spec, recs []record.Rec) []record.Rec {
	sys := sim.NewSystem()
	in := sys.NewLink("in", 8, 1)
	out := sys.NewLink("out", 8, 1)
	tile := NewTile(cfg, mem, spec, in, out, sys.Stats())
	src := &vecSource{out: in, vecs: vectorize(recs)}
	snk := &vecSink{in: out}
	sys.Add(src)
	sys.Add(tile)
	sys.Add(snk)
	if _, err := sys.Run(5_000_000); err != nil {
		panic(err)
	}
	return snk.recs
}

// recKey folds a whole record into a comparable multiset key.
func recKey(r record.Rec) string {
	k := ""
	for i := 0; i < r.Len(); i++ {
		k += fmt.Sprintf("%d,", r.Get(i))
	}
	return k
}

// multiset counts records by full field image.
func multiset(recs []record.Rec) map[string]int {
	m := make(map[string]int, len(recs))
	for _, r := range recs {
		m[recKey(r)]++
	}
	return m
}

func sameMultiset(a, b []record.Rec) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, n := range ma {
		if mb[k] != n {
			return false
		}
	}
	return true
}

// runBoth pushes identical record sets through a reordering tile and an
// in-order tile over identically initialized memories and returns both
// outputs plus both final memory images.
func runBoth(spec func() Spec, recs []record.Rec, fill uint32) (outR, outI []record.Rec, memR, memI []uint32) {
	cp := append([]record.Rec(nil), recs...)
	mR := NewMem(16, 64, 0)
	mR.Fill(fill)
	mI := NewMem(16, 64, 0)
	mI.Fill(fill)
	outR = runTileCfg(Config{Name: "reorder", ForwardRMW: true}, mR, spec(), recs)
	outI = runTileCfg(Config{Name: "inorder", InOrder: true, ForwardRMW: true}, mI, spec(), cp)
	memR = mR.Snapshot(0, mR.Words())
	memI = mI.Snapshot(0, mI.Words())
	return
}

// conflictRecs generates a workload skewed onto a handful of addresses so
// bank conflicts force genuine reordering: (addr, arg, id) triples where id
// makes every record distinct and the permutation check meaningful.
func conflictRecs(rng *rand.Rand, n int) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(rng.Intn(8)), rng.Uint32(), uint32(i))
	}
	return recs
}

// TestPropertyCommutativeOpsReorderSafe: every op class the prover accepts
// as reorder-safe really is — same final memory bits, and the reordered
// output stream is a permutation of the in-order one. FAA's responses are
// deliberately not attached here (they are order-sensitive per thread for
// non-unit deltas even though their fold commutes); the response-level
// guarantee is pinned separately below.
func TestPropertyCommutativeOpsReorderSafe(t *testing.T) {
	keep := func(*record.Rec, []uint32) bool { return true }
	addr := func(r *record.Rec) uint32 { return r.Get(0) }
	arg := func(r *record.Rec, _ int) uint32 { return r.Get(1) }
	cases := []struct {
		name string
		fill uint32 // initial memory image; min needs a high floor to move
		spec func() Spec
	}{
		{"faa", 0, func() Spec {
			return Spec{Op: OpFAA, Addr: addr, Data: arg, Apply: keep}
		}},
		{"modify-add", 0, func() Spec {
			return Spec{Op: OpModify, Addr: addr, Data: arg, Combiner: CombineAdd, Apply: keep}
		}},
		{"modify-min", ^uint32(0), func() Spec {
			return Spec{Op: OpModify, Addr: addr, Data: arg, Combiner: CombineMin, Apply: keep}
		}},
		{"modify-max", 0, func() Spec {
			return Spec{Op: OpModify, Addr: addr, Data: arg, Combiner: CombineMax, Apply: keep}
		}},
		{"modify-or", 0, func() Spec {
			return Spec{Op: OpModify, Addr: addr, Data: arg, Combiner: CombineOr, Apply: keep}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := &quick.Config{MaxCount: 6}
			if err := quick.Check(func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				recs := conflictRecs(rng, rng.Intn(300)+64)
				outR, outI, memR, memI := runBoth(tc.spec, recs, tc.fill)
				if !sameMultiset(outR, outI) {
					return false
				}
				for i := range memR {
					if memR[i] != memI[i] {
						return false
					}
				}
				return true
			}, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyFAAResponsesOrderFree pins the stronger, FAA-only guarantee:
// with unit deltas the observed pre-add values form the dense ticket set
// {0..c-1} at each address, so the (addr, ticket) response multiset is
// bit-identical between the reordering and in-order disciplines — not just
// a permutation. No other op offers this: write/xchg/cas responses and
// even FAA with mixed deltas expose the interleaving.
func TestPropertyFAAResponsesOrderFree(t *testing.T) {
	spec := func() Spec {
		return Spec{
			Op:   OpFAA,
			Addr: func(r *record.Rec) uint32 { return r.Get(0) },
			Data: func(*record.Rec, int) uint32 { return 1 },
			Apply: func(r *record.Rec, resp []uint32) bool {
				// Keep only (addr, ticket): thread identity must not leak
				// into the comparison, since which thread draws which
				// ticket is exactly what reordering changes.
				*r = record.Make(r.Get(0), resp[0])
				return true
			},
		}
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 32
		recs := make([]record.Rec, n)
		for i := range recs {
			recs[i] = record.Make(uint32(rng.Intn(6)), 0, uint32(i))
		}
		outR, outI, memR, memI := runBoth(spec, recs, 0)
		if !sameMultiset(outR, outI) {
			return false
		}
		for i := range memR {
			if memR[i] != memI[i] {
				return false
			}
		}
		// Dense tickets: every address that issued c tickets saw exactly
		// {0..c-1}, under both disciplines.
		for _, out := range [][]record.Rec{outR, outI} {
			seen := map[[2]uint32]bool{}
			count := map[uint32]uint32{}
			for _, r := range out {
				seen[[2]uint32{r.Get(0), r.Get(1)}] = true
				count[r.Get(0)]++
			}
			for a, c := range count {
				for tkt := uint32(0); tkt < c; tkt++ {
					if !seen[[2]uint32{a, tkt}] {
						return false
					}
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
