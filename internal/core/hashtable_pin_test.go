package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"aurochs/internal/record"
)

// tablePin is one hash-table kernel's simulated outcome on a seeded input:
// cycles, DRAM bytes, and FNV-64a digests of every Stats counter (name and
// value, sorted by name) and of the functional result.
type tablePin struct {
	cycles, dramBytes int64
	stats, result     uint64
}

func digestWords(h hash.Hash64, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func checkTablePin(t *testing.T, res Result, result uint64, want tablePin) {
	t.Helper()
	sh := fnv.New64a()
	for _, name := range res.Stats.Names() {
		sh.Write([]byte(name))
		digestWords(sh, uint64(res.Stats.Get(name)))
	}
	got := tablePin{res.Cycles, res.DRAMBytes, sh.Sum64(), result}
	if got != want {
		t.Errorf("got {%d, %d, %#x, %#x}, pinned {%d, %d, %#x, %#x}",
			got.cycles, got.dramBytes, got.stats, got.result,
			want.cycles, want.dramBytes, want.stats, want.result)
		t.Logf("stats:\n%s", res.Stats)
	}
}

// matchDigest hashes probe matches ([key..., tag, val]) in sink order.
func matchDigest(recs []record.Rec) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		for i := 0; i < r.Len(); i++ {
			digestWords(h, uint64(r.Get(i)))
		}
	}
	return h.Sum64()
}

// TestHashTableOverflowPinned pins the hash build and probe with most nodes
// in the DRAM overflow buffer (SpadNodes=64), for one- and two-word keys
// and for first-match probes, plus one small aggregation. The node-access
// split, the scratchpad and DRAM node paths and the merges behind them are
// all on the measured path, so a rewiring that moves a cycle, a Stats
// counter, a DRAM byte, a chain's order or a match fails here.
func TestHashTableOverflowPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n = 600
	build1 := make([]record.Rec, n)
	probe1 := make([]record.Rec, n/2)
	build2 := make([]record.Rec, n)
	probe2 := make([]record.Rec, n/2)
	for i := range build1 {
		build1[i] = record.Make(rng.Uint32()%150, uint32(i))
		build2[i] = record.Make(0, 0, uint32(i)).SetU64(0, uint64(rng.Intn(30))|uint64(rng.Intn(5))<<32)
	}
	for i := range probe1 {
		probe1[i] = record.Make(rng.Uint32()%200, uint32(1000+i))
		probe2[i] = record.Make(0, 0, uint32(1000+i)).SetU64(0, uint64(rng.Intn(40))|uint64(rng.Intn(6))<<32)
	}

	params := func(keyWords int) HashTableParams {
		p := DefaultHashTableParams(n)
		p.SpadNodes = 64
		p.KeyWords = keyWords
		return p
	}
	// chains hashes every bucket's chain as the functional lookup sees it.
	chains := func(ht *HashTable) uint64 {
		h := fnv.New64a()
		for b := uint32(0); b < ht.Params.Buckets; b++ {
			for ptr := ht.Heads.Read(b); ptr != Nil; ptr = ht.nodeWord(ptr, ht.Params.nodeWords()-1) {
				for i := uint32(0); i < ht.Params.nodeWords(); i++ {
					digestWords(h, uint64(ht.nodeWord(ptr, i)))
				}
			}
		}
		return h.Sum64()
	}

	ht1, res, err := BuildHashTable(params(1), build1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("build-key1", func(t *testing.T) {
		checkTablePin(t, res, chains(ht1), tablePin{509, 6464, 0x433bc2ad5f11a81a, 0xccccd9cb5b2f151b})
	})
	t.Run("probe-key1", func(t *testing.T) {
		got, res, err := ProbeHashTable(ht1, probe1, ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkTablePin(t, res, matchDigest(got), tablePin{1475, 70080, 0x4c682110ad805a69, 0x5d59569d53c4ec7d})
	})
	t.Run("probe-key1-first", func(t *testing.T) {
		got, res, err := ProbeHashTable(ht1, probe1, ProbeOptions{FirstMatchOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		checkTablePin(t, res, matchDigest(got), tablePin{819, 21760, 0xd07d6f30073fc39b, 0x7d6ca9a7d4f1ed8b})
	})

	ht2, res2, err := BuildHashTable(params(2), build2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("build-key2", func(t *testing.T) {
		checkTablePin(t, res2, chains(ht2), tablePin{458, 8576, 0xbad52521eb5e0c07, 0x8fb9b8f706cb99fd})
	})
	t.Run("probe-key2", func(t *testing.T) {
		got, res, err := ProbeHashTable(ht2, probe2, ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkTablePin(t, res, matchDigest(got), tablePin{1223, 47872, 0x9a6000fa6863d880, 0xd4786c21aaf489e7})
	})

	t.Run("aggregate", func(t *testing.T) {
		keys := make([]uint32, 1500)
		for i := range keys {
			keys[i] = rng.Uint32() % 200
		}
		agg, res, err := HashAggregate(DefaultHashTableParams(256), keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups := agg.Groups()
		ks := make([]uint32, 0, len(groups))
		for k := range groups {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		h := fnv.New64a()
		digestWords(h, uint64(agg.NodesLinked()))
		for _, k := range ks {
			digestWords(h, uint64(k), uint64(groups[k]))
		}
		checkTablePin(t, res, h.Sum64(), tablePin{891, 0, 0x6ac0f65a429c6c63, 0x229618acd55634f})
	})
}
