package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"

	"aurochs/internal/core"
	"aurochs/internal/queries"
	"aurochs/internal/record"
)

func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a gzipped CPU profile whose samples have known
// leaf functions, mixing packed and unpacked repeated fields and an
// inlined frame.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count",
		"runtime.duffcopy",
		"aurochs/internal/sim.(*System).RunWith",
		"aurochs/internal/ring.(*Queue[go.shape.struct { R aurochs/internal/record.Rec }]).Push",
		"aurochs/internal/spad.(*Tile).Tick",
		"runtime.mallocgc",
		"sort.Slice",
	}
	var p []byte
	for _, s := range strs {
		p = pbBytes(p, profStrings, []byte(s))
	}
	for id := uint64(1); id <= 6; id++ {
		var f []byte
		f = pbVarint(f, functionID, id)
		f = pbVarint(f, functionName, id+2) // function id n is strs[n+2]
		p = pbBytes(p, profFunction, f)
	}
	line := func(fn uint64) []byte { return pbVarint(nil, lineFunctionID, fn) }
	loc := func(id uint64, fns ...uint64) {
		l := pbVarint(nil, locationID, id)
		for _, fn := range fns {
			l = pbBytes(l, locationLine, line(fn))
		}
		p = pbBytes(p, profLocation, l)
	}
	loc(1, 1, 4) // duffcopy inlined into spad Tick: the leaf is duffcopy
	loc(2, 2)
	loc(3, 3)
	loc(4, 5)
	loc(5, 6)
	loc(6, 4)
	loc(7) // unsymbolized
	packed := func(n uint64, locs ...uint64) {
		var s []byte
		s = pbBytes(s, sampleLocationID, pbPacked(locs...))
		s = pbBytes(s, sampleValue, pbPacked(n, n*10_000_000))
		p = pbBytes(p, profSample, s)
	}
	packed(5, 1, 6)
	var s []byte // unpacked repeated fields
	s = pbVarint(s, sampleLocationID, 2)
	s = pbVarint(s, sampleValue, 3)
	s = pbVarint(s, sampleValue, 30_000_000)
	p = pbBytes(p, profSample, s)
	packed(2, 3, 2)
	packed(1, 4)
	packed(4, 5, 2)
	packed(2, 6)
	packed(1, 7)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileFoldsLeafSamplesByPackage(t *testing.T) {
	leaves, err := leafSamples(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	layers, total := foldLayers(leaves)
	want := map[string]int64{"copy": 5, "sim": 3, "ring": 2, "runtime": 1, "other": 5, "spad": 2}
	if total != 18 || !reflect.DeepEqual(layers, want) {
		t.Fatalf("fold = %v (total %d), want %v (total 18)", layers, total, want)
	}
}

func TestProfileRejectsTruncatedData(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pbBytes(nil, profSample, []byte{0x0a, 0x05, 0x01})[:4]) // length runs past the end
	zw.Close()
	if _, err := leafSamples(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.memmove": "copy",
		"runtime.gcDrain": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"aurochs/internal/fabric.(*Filter).drainPipe":  "fabric",
		"aurochs/internal/index/btree.Build":           "index",
		"aurochs/internal/dram.(*HBM).retire":          "dram",
		"type:.eq.aurochs/internal/record.Rec":         "record",
		"aurochs/internal/ml.(*Linear).Predict":        "other",
		"main.main":                                    "other",
		"sync/atomic.(*Int64).Add":                     "other",
		"?":                                            "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSumSuffix(t *testing.T) {
	counters := map[string]int64{
		"agg.head.grants":    4,
		"agg.nodeR.grants":   6,
		"agg.head.in_stall":  1,
		"agg.nodeR.in_stall": 2,
		"prt.b0.dram_stall":  7,
		"prt.b0.dram_reqs":   9,
		"bld.0.spill.stall":  100, // not a suffix match for ".dram_stall"
	}
	for suffix, want := range map[string]int64{".grants": 10, ".in_stall": 3, ".dram_stall": 7, ".refills": 0} {
		if got := sumSuffix(counters, suffix); got != want {
			t.Errorf("sumSuffix(%q) = %d, want %d", suffix, got, want)
		}
	}
}

func TestRatioWithZeroBaseIsAbsent(t *testing.T) {
	l := newLedger()
	l.ratio("dram.row_hit_ratio", 0, 0)
	l.ratio("spad.conflicts_per_grant", 12, 4)
	if v, ok := l.value("dram.row_hit_ratio"); !ok || v != absentValue {
		t.Errorf("zero-base ratio = %v, %v; want absent (%v)", v, ok, absentValue)
	}
	if _, measured := l.vals["dram.row_hit_ratio"]; measured {
		t.Error("zero-base ratio was recorded as a measurement")
	}
	if v, _ := l.value("spad.conflicts_per_grant"); v != 3 {
		t.Errorf("ratio = %v, want 3", v)
	}
	if _, ok := l.value("never.set"); ok {
		t.Error("a metric nobody set reads as produced")
	}
}

func TestCheckJoinRejectsCorruptMatches(t *testing.T) {
	build := []record.Rec{record.Make(1, 0), record.Make(2, 1), record.Make(2, 2), record.Make(9, 3)}
	probe := []record.Rec{record.Make(2, 0), record.Make(1, 1), record.Make(5, 2), record.Make(2, 3)}
	want := hostJoin(build, probe)
	if want.count != 5 {
		t.Fatalf("reference join found %d matches, want 5", want.count)
	}
	matches, _, err := core.HashJoin(nil, build, probe, core.HashJoinOptions{Pipelines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJoin(matches, want); err != nil {
		t.Fatalf("kernel output rejected: %v", err)
	}
	swapped := append([]record.Rec(nil), matches...)
	swapped[0] = record.Make(swapped[0].Get(0), swapped[0].Get(2), swapped[0].Get(1))
	for name, bad := range map[string][]record.Rec{
		"dropped":   matches[1:],
		"duplicate": append(append([]record.Rec(nil), matches...), matches[0]),
		"swapped":   swapped,
	} {
		if checkJoin(bad, want) == nil {
			t.Errorf("%s match accepted", name)
		}
	}
}

func TestCheckGroupsRejectsCorruptCounts(t *testing.T) {
	keys := []uint32{3, 3, 3, 7, 1, 7, 3}
	a := &aggBench{keys: keys}
	if err := a.reference(); err != nil {
		t.Fatal(err)
	}
	agg, _, err := core.HashAggregate(core.DefaultHashTableParams(len(keys)), keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Groups()
	if err := checkGroups(got, a.want); err != nil {
		t.Fatalf("kernel output rejected: %v", err)
	}
	got[3]--
	if checkGroups(got, a.want) == nil {
		t.Error("wrong count accepted")
	}
	got[3]++
	got[99] = 1
	if checkGroups(got, a.want) == nil {
		t.Error("extra group accepted")
	}
}

func TestCheckQueriesRejectsCorruptFingerprint(t *testing.T) {
	d := queries.Generate(queries.Scale{Rides: 400, Riders: 40, Drivers: 20, Locations: 16, RideReqs: 40, DriverStatus: 30}, 3)
	want, err := queries.RunAll(queries.NewCPU(), d)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]queries.QueryResult(nil), want...)
	if errs := checkQueries(got, want); len(errs) != 0 {
		t.Fatalf("identical results rejected: %v", errs)
	}
	got[4].Fingerprint ^= 1
	got[7].Rows++
	if errs := checkQueries(got, want); len(errs) != 2 {
		t.Errorf("corrupted results gave %d errors, want 2: %v", len(errs), errs)
	}
}

func TestTallyCountsDriftAsFailure(t *testing.T) {
	var tl tally
	tl.add(outcome{ops: 2, sig: []string{"q1 a", "q2 b"}})
	tl.add(outcome{ops: 2, sig: []string{"q1 a", "q2 b"}})
	tl.add(outcome{ops: 2, sig: []string{"q1 a", "q2 c"}})
	if tl.attempted != 6 || tl.failed != 1 || len(tl.notes) != 1 {
		t.Fatalf("tally = %d attempted, %d failed, notes %v; want 6, 1, one note", tl.attempted, tl.failed, tl.notes)
	}
}

func TestKeyedSetSortsOnlyDistinctKeys(t *testing.T) {
	distinct := []queries.KV{{Key: 9, Val: 0}, {Key: 2, Val: 1}, {Key: 5, Val: 2}}
	got := keyedSet(distinct)
	if want := []queries.KV{{Key: 2, Val: 1}, {Key: 5, Val: 2}, {Key: 9, Val: 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("keyedSet(distinct) = %v, want %v", got, want)
	}
	if distinct[0].Key != 9 {
		t.Error("keyedSet reordered its input")
	}
	dup := []queries.KV{{Key: 9, Val: 0}, {Key: 2, Val: 1}, {Key: 9, Val: 2}}
	if got := keyedSet(dup); &got[0] != &dup[0] {
		t.Error("keyedSet replaced a side with duplicate keys")
	}
}
