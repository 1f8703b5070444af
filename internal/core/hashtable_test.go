package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// refJoin is the software-reference equi-join used to validate kernels.
func refJoin(build, probe []record.Rec) map[[2]uint32][]uint32 {
	idx := make(map[uint32][]uint32)
	for _, r := range build {
		idx[r.Get(0)] = append(idx[r.Get(0)], r.Get(1))
	}
	out := make(map[[2]uint32][]uint32)
	for _, r := range probe {
		k := r.Get(0)
		for _, v := range idx[k] {
			key := [2]uint32{k, r.Get(1)}
			out[key] = append(out[key], v)
		}
	}
	for _, vs := range out {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	return out
}

func kv(n int, keyMod uint32, seed int64) []record.Rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(rng.Uint32()%keyMod, uint32(i)+1)
	}
	return recs
}

func TestBuildThenLookupAll(t *testing.T) {
	input := kv(500, 200, 1)
	ht, res, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Inserted != 500 {
		t.Fatalf("inserted %d", ht.Inserted)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
	// Every inserted (key,val) must be findable.
	want := make(map[uint32][]uint32)
	for _, r := range input {
		want[r.Get(0)] = append(want[r.Get(0)], r.Get(1))
	}
	for k, vs := range want {
		got := ht.LookupAll(k)
		if len(got) != len(vs) {
			t.Fatalf("key %d: got %d values, want %d", k, len(got), len(vs))
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("key %d: values %v, want %v", k, got, vs)
			}
		}
	}
}

func TestBuildOverflowsToDRAM(t *testing.T) {
	// Force a tiny on-chip node capacity so most nodes overflow.
	p := DefaultHashTableParams(300)
	p.SpadNodes = 64
	input := kv(300, 50, 2)
	ht, _, err := BuildHashTable(p, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chains must walk transparently across the SRAM/DRAM split.
	total := 0
	for k := uint32(0); k < 50; k++ {
		total += len(ht.LookupAll(k))
	}
	if total != 300 {
		t.Fatalf("found %d of 300 across overflow boundary", total)
	}
	if ht.HBM.ReadWord(p.OverflowBase) == 0 && ht.HBM.ReadWord(p.OverflowBase+1) == 0 {
		t.Error("overflow buffer untouched despite SpadNodes=64")
	}
}

func TestProbeFindsAllMatches(t *testing.T) {
	build := kv(400, 100, 3)
	probe := make([]record.Rec, 250)
	rng := rand.New(rand.NewSource(4))
	for i := range probe {
		probe[i] = record.Make(rng.Uint32()%150, uint32(1000+i)) // some miss
	}
	ht, _, err := BuildHashTable(DefaultHashTableParams(len(build)), build, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := ProbeHashTable(ht, probe, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	want := refJoin(build, probe)
	gotM := make(map[[2]uint32][]uint32)
	for _, r := range got {
		k := [2]uint32{r.Get(0), r.Get(1)}
		gotM[k] = append(gotM[k], r.Get(2))
	}
	for _, vs := range gotM {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	if len(gotM) != len(want) {
		t.Fatalf("got %d match groups, want %d", len(gotM), len(want))
	}
	for k, vs := range want {
		g := gotM[k]
		if len(g) != len(vs) {
			t.Fatalf("probe (key=%d,tag=%d): got %v want %v", k[0], k[1], g, vs)
		}
		for i := range vs {
			if g[i] != vs[i] {
				t.Fatalf("probe (key=%d,tag=%d): got %v want %v", k[0], k[1], g, vs)
			}
		}
	}
}

func TestProbeFirstMatchOnly(t *testing.T) {
	build := []record.Rec{
		record.Make(7, 1), record.Make(7, 2), record.Make(7, 3),
		record.Make(9, 4),
	}
	ht, _, err := BuildHashTable(DefaultHashTableParams(4), build, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ProbeHashTable(ht, []record.Rec{record.Make(7, 0), record.Make(9, 1), record.Make(8, 2)}, ProbeOptions{FirstMatchOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2 (one per present key)", len(got))
	}
}

func TestProbeOverflowChains(t *testing.T) {
	p := DefaultHashTableParams(300)
	p.SpadNodes = 32 // nearly everything in DRAM
	build := kv(300, 40, 5)
	probe := make([]record.Rec, 100)
	for i := range probe {
		probe[i] = record.Make(uint32(i)%60, uint32(i))
	}
	ht, _, err := BuildHashTable(p, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ProbeHashTable(ht, probe, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := 0
	for _, g := range refJoin(build, probe) {
		wantCount += len(g)
	}
	if len(got) != wantCount {
		t.Fatalf("matches=%d want %d", len(got), wantCount)
	}
}

// TestConcurrentStyleSkewedBuild hammers one bucket (all duplicate keys) —
// maximum CAS contention — and must still insert everything exactly once.
func TestConcurrentStyleSkewedBuild(t *testing.T) {
	input := make([]record.Rec, 200)
	for i := range input {
		input[i] = record.Make(42, uint32(i))
	}
	ht, res, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ht.LookupAll(42)
	if len(got) != 200 {
		t.Fatalf("chain has %d entries, want 200", len(got))
	}
	seen := map[uint32]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d linked twice", v)
		}
		seen[v] = true
	}
	// Contention must cost cycles: with 200 same-bucket CAS ops the build
	// cannot finish at one insert/cycle.
	if res.Cycles < 200 {
		t.Errorf("suspiciously fast under total contention: %d cycles", res.Cycles)
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	p := DefaultHashTableParams(10)
	p.Buckets = 3
	if _, _, err := BuildHashTable(p, kv(10, 5, 1), nil); err == nil {
		t.Error("non-power-of-two buckets accepted")
	}
	p = DefaultHashTableParams(10)
	p.MaxNodes = 5
	if _, _, err := BuildHashTable(p, kv(10, 5, 1), nil); err == nil {
		t.Error("overful input accepted")
	}
}

// TestAblationInOrderSlower: the Capstan in-order scratchpad should not
// outperform the Aurochs reordering pipeline on a conflict-heavy probe.
func TestAblationInOrderSlower(t *testing.T) {
	build := kv(2000, 256, 6)
	probe := kv(2000, 256, 7)
	run := func(tun Tuning) int64 {
		p := DefaultHashTableParams(len(build))
		p.Tuning = tun
		ht, _, err := BuildHashTable(p, build, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := ProbeHashTable(ht, probe, ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fast := run(Tuning{})
	slow := run(Tuning{InOrderSpad: true})
	if fast > slow+slow/10 {
		t.Errorf("reordering probe (%d cyc) should not be slower than in-order (%d cyc)", fast, slow)
	}
}

// TestInsertHashTableStreaming: streaming inserts through the build
// pipeline must land in the same table and remain probe-consistent — the
// symmetric stream-join ingest path (paper §IV-A).
func TestInsertHashTableStreaming(t *testing.T) {
	p := DefaultHashTableParams(600)
	ht, _, err := BuildHashTable(p, kv(200, 80, 31), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch2 := kv(200, 80, 32)
	res, err := insertHashTable(ht, batch2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles for insert")
	}
	if ht.Inserted != 400 {
		t.Fatalf("inserted=%d", ht.Inserted)
	}
	total := 0
	for k := uint32(0); k < 80; k++ {
		total += len(ht.LookupAll(k))
	}
	if total != 400 {
		t.Fatalf("lookup found %d of 400", total)
	}
	// Probes against the incrementally grown table.
	got, _, err := ProbeHashTable(ht, kv(100, 80, 33), ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := refJoin(append(kv(200, 80, 31), batch2...), kv(100, 80, 33))
	wantCount := 0
	for _, vs := range want {
		wantCount += len(vs)
	}
	if len(got) != wantCount {
		t.Fatalf("probe matches=%d want %d", len(got), wantCount)
	}
}

func TestInsertHashTableOverCapacity(t *testing.T) {
	p := DefaultHashTableParams(10)
	ht, _, err := BuildHashTable(p, kv(10, 5, 34), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertHashTable(ht, kv(100, 5, 35)); err == nil {
		t.Error("over-capacity insert accepted")
	}
}

// TestWideKeyBuildProbe: two-word (64-bit) keys stay in one lane and
// compare field-by-field across pipeline stages (paper §II-B). Collisions
// in the low word must not produce false matches.
func TestWideKeyBuildProbe(t *testing.T) {
	p := DefaultHashTableParams(400)
	p.KeyWords = 2
	rng := rand.New(rand.NewSource(41))
	build := make([]record.Rec, 400)
	want := map[uint64][]uint32{}
	for i := range build {
		// Shared low word, distinct high words: a 32-bit comparison
		// would alias these keys.
		key := uint64(rng.Intn(50)) | uint64(rng.Intn(40))<<32
		build[i] = record.Make(0, 0, uint32(i)).SetU64(0, key)
		want[key] = append(want[key], uint32(i))
	}
	ht, _, err := BuildHashTable(p, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	for key, vs := range want {
		got := ht.LookupAll64(key)
		if len(got) != len(vs) {
			t.Fatalf("key %x: %d values, want %d", key, len(got), len(vs))
		}
	}

	probes := make([]record.Rec, 200)
	for i := range probes {
		key := uint64(rng.Intn(60)) | uint64(rng.Intn(50))<<32
		probes[i] = record.Make(0, 0, uint32(1000+i)).SetU64(0, key)
	}
	got, _, err := ProbeHashTable(ht, probes, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantMatches := 0
	for _, pr := range probes {
		wantMatches += len(want[pr.U64(0)])
	}
	if len(got) != wantMatches {
		t.Fatalf("matches=%d want %d", len(got), wantMatches)
	}
	for _, m := range got {
		if len(want[m.U64(0)]) == 0 {
			t.Fatalf("false match on key %x (low-word alias?)", m.U64(0))
		}
	}
}

func TestWideKeyRejectsBadWidth(t *testing.T) {
	p := DefaultHashTableParams(8)
	p.KeyWords = 3
	defer func() {
		if recover() == nil {
			t.Error("KeyWords=3 must panic")
		}
	}()
	BuildHashTable(p, []record.Rec{record.Make(1, 2, 3, 4)}, nil)
}

// insertHashTable streams additional records into an existing table through
// the same build pipeline — the streaming-ingest path that lets two live
// streams build tables from each other's records while probing (paper
// §IV-A, "low-latency stream joins"). Safe to interleave with probes:
// CAS-prepend keeps every bucket consistent at all times.
func insertHashTable(ht *HashTable, input []record.Rec) (Result, error) {
	if uint32(len(input))+ht.Inserted > ht.Params.MaxNodes {
		return Result{}, fmt.Errorf("core: insert would exceed MaxNodes=%d", ht.Params.MaxNodes)
	}
	g := fabric.NewGraph()
	g.AttachHBM(ht.HBM)
	snk := buildPipeline(g, "ins", ht, InRecs(input))
	res, err := runGraph(g, budgetFor(len(input)))
	if err != nil {
		return res, fmt.Errorf("hash insert: %w", err)
	}
	if snk.Count() != len(input) {
		return res, fmt.Errorf("hash insert: %d of %d threads completed", snk.Count(), len(input))
	}
	return res, nil
}
