package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// serial runs the two phases one after the other on hbm: the result
// overlap must reproduce.
func serial[T any](hbm *dram.HBM, total *Result, first, second func(*dram.HBM, *Result) (T, error)) (a, b T, err error) {
	if a, err = first(hbm, total); err != nil {
		return a, b, err
	}
	b, err = second(hbm, total)
	return a, b, err
}

// overlapOnce is overlap that also fails the test when it had to replay
// the second phase: every merge in these tests must be accepted.
func overlapOnce[T any](t *testing.T) func(*dram.HBM, *Result, func(*dram.HBM, *Result) (T, error), func(*dram.HBM, *Result) (T, error)) (T, T, error) {
	return func(hbm *dram.HBM, total *Result, first, second func(*dram.HBM, *Result) (T, error)) (T, T, error) {
		var runs atomic.Int32
		a, b, err := overlap(hbm, total, first, func(h *dram.HBM, r *Result) (T, error) {
			runs.Add(1)
			return second(h, r)
		})
		if runs.Load() != 1 {
			t.Errorf("the second phase ran %d times: the merge was refused or the fork failed", runs.Load())
		}
		return a, b, err
	}
}

// joinRun is everything a hash join leaves behind that the serial and the
// overlapped partition phases must agree on.
type joinRun struct {
	matches  []record.Rec
	res      Result
	stats    string
	err      string
	counters [6]int64
	arenas   []uint32
	overflow []uint32
}

func countersOf(h *dram.HBM) [6]int64 {
	return [6]int64{h.ReadBursts, h.WriteBursts, h.RowHits, h.RowMisses, h.Stalls, h.CoalescedWrites}
}

func runJoin(build, probe []record.Rec, opt HashJoinOptions,
	both func(*dram.HBM, *Result, partitionPass, partitionPass) ([]*PartitionSet, []*PartitionSet, error)) joinRun {
	hbm := dram.New(dram.DefaultConfig())
	m, res, err := hashJoinIn(hbm, InRecs(build), InRecs(probe), opt, both)
	run := joinRun{
		matches:  m.Records(),
		res:      res,
		counters: countersOf(hbm),
	}
	if res.Stats != nil {
		run.stats = res.Stats.String()
		run.res.Stats = nil
	}
	if err != nil {
		run.err = err.Error()
	}
	// The first pages of both sides' block arenas.
	run.arenas = append(hbm.SnapshotWords(RegionPartBlocks, 8192), hbm.SnapshotWords(RegionPartBlocks+1<<26, 8192)...)
	// The first pipeline's hash-table overflow buffer.
	run.overflow = hbm.SnapshotWords(RegionHashOverflow, 4096)
	return run
}

// TestHashJoinOverlapMatchesSerial: with the probe side's partition pass
// on a forked HBM, HashJoin's matches, Result, Stats, HBM counters and
// partition arenas equal those of the two passes run in sequence on one
// HBM, and no merge is refused.
func TestHashJoinOverlapMatchesSerial(t *testing.T) {
	cases := []struct {
		name         string
		build, probe []record.Rec
		opt          HashJoinOptions
	}{
		{"P=1", kv(3000, 6000, 1), kv(3000, 6000, 2), HashJoinOptions{Pipelines: 1}},
		{"P=4", kv(3000, 6000, 3), kv(3000, 6000, 4), HashJoinOptions{Pipelines: 4}},
		{"P=16", kv(4000, 8000, 5), kv(4000, 8000, 6), HashJoinOptions{Pipelines: 16}},
		{"empty build side", nil, kv(1000, 2000, 7), HashJoinOptions{Pipelines: 4}},
		{"empty probe side", kv(1000, 2000, 8), nil, HashJoinOptions{Pipelines: 4}},
		{"duplicate keys", kv(2000, 40, 9), kv(500, 40, 10), HashJoinOptions{Pipelines: 4}},
		{"Parts > P", kv(3000, 6000, 11), kv(3000, 6000, 12), HashJoinOptions{Parts: 16, Pipelines: 4}},
		{"semi-join", kv(2000, 500, 13), kv(2000, 500, 14), HashJoinOptions{Pipelines: 2, FirstMatchOnly: true}},
		// One partition of more build rows than the node scratchpad holds
		// (DefaultHashTableParams: 21845 nodes), so the build spills nodes
		// to the DRAM overflow buffer.
		{"build overflows to DRAM", kv(22500, 1<<20, 15), kv(1500, 1<<20, 16), HashJoinOptions{Parts: 1, Pipelines: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runJoin(tc.build, tc.probe, tc.opt, serial[[]*PartitionSet])
			got := runJoin(tc.build, tc.probe, tc.opt, overlapOnce[[]*PartitionSet](t))
			if want.err != "" {
				t.Fatalf("serial join failed: %s", want.err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overlapped join differs from serial:\n got %d matches, %+v, counters %v, err %q\nwant %d matches, %+v, counters %v",
					len(got.matches), got.res, got.counters, got.err, len(want.matches), want.res, want.counters)
			}
			overflowed := slices.ContainsFunc(got.overflow, func(w uint32) bool { return w != 0 })
			if overflowed != (tc.name == "build overflows to DRAM") {
				t.Fatalf("build overflowed to DRAM: %v", overflowed)
			}
		})
	}
}

// TestHashJoinOverlapBuildFailure: when the build side's partition pass
// fails, HashJoin returns the same error and partial Result as with the
// passes in sequence, whatever the probe side's pass did on the fork.
func TestHashJoinOverlapBuildFailure(t *testing.T) {
	build, probe := kv(500, 1000, 1), kv(500, 1000, 2)
	opt := HashJoinOptions{Parts: 3, Pipelines: 1} // not a power of two
	want := runJoin(build, probe, opt, serial[[]*PartitionSet])
	got := runJoin(build, probe, opt, overlap[[]*PartitionSet])
	if want.err == "" || !reflect.DeepEqual(got, want) {
		t.Fatalf("got err %q, %+v; want err %q, %+v", got.err, got.res, want.err, want.res)
	}
}

// Synthetic phases for overlap: first partitions a table into its arena,
// and the second phases read that arena back, which on a fork is a read
// of pages the fork never wrote.
const scanWords = 4096

func partitionPhase(recs []record.Rec, fail bool) func(*dram.HBM, *Result) ([]uint32, error) {
	return func(h *dram.HBM, total *Result) ([]uint32, error) {
		ps, res, err := Partition(DefaultPartitionParams(len(recs), 4, 2), recs, h)
		if err != nil {
			return nil, err
		}
		accumulate(total, res)
		if fail {
			return nil, errors.New("first phase failed after its run")
		}
		return []uint32{ps.Blocks}, nil
	}
}

// scanPhase reads the first scanWords words of the partition arena
// through a DRAMScan. With strict set, it fails when it reads only zeros.
func scanPhase(strict bool) func(*dram.HBM, *Result) ([]uint32, error) {
	return func(h *dram.HBM, total *Result) ([]uint32, error) {
		g := fabric.NewGraph()
		g.AttachHBM(h)
		out := g.Link("scan.out")
		base := DefaultPartitionParams(0, 4, 2).BlockBase
		fabric.NewDRAMScan(g, "scan.in", []fabric.Extent{{Addr: base, Words: scanWords}}, 2, out)
		snk := fabric.NewSink("scan.sink", out)
		g.Add(snk)
		res, err := runGraph(g, budgetFor(scanWords))
		if err != nil {
			return nil, err
		}
		accumulate(total, res)
		var words []uint32
		for _, r := range snk.Records() {
			words = append(words, r.Get(0), r.Get(1))
		}
		if strict && !slices.ContainsFunc(words, func(w uint32) bool { return w != 0 }) {
			return nil, errors.New("scan read only zeros")
		}
		return words, nil
	}
}

// phaseRun is what a pair of synthetic phases leaves behind.
type phaseRun struct {
	a, b     []uint32
	res      Result
	stats    string
	err      string
	counters [6]int64
	runs     int32
}

func runPhases(first, second func(*dram.HBM, *Result) ([]uint32, error),
	both func(*dram.HBM, *Result, func(*dram.HBM, *Result) ([]uint32, error), func(*dram.HBM, *Result) ([]uint32, error)) ([]uint32, []uint32, error)) phaseRun {
	hbm := dram.New(dram.DefaultConfig())
	var total Result
	var runs atomic.Int32
	a, b, err := both(hbm, &total, first, func(h *dram.HBM, r *Result) ([]uint32, error) {
		runs.Add(1)
		return second(h, r)
	})
	run := phaseRun{a: a, b: b, res: total, runs: runs.Load(),
		counters: countersOf(hbm)}
	if total.Stats != nil {
		run.stats = total.Stats.String()
		run.res.Stats = nil
	}
	if err != nil {
		run.err = err.Error()
	}
	return run
}

// TestOverlapReplaysRefusedMerge: a second phase that reads what the first
// wrote cannot be merged (it read pages its fork never wrote), and one
// that fails on the fork cannot be kept; either way overlap replays it on
// the shared HBM and returns exactly the serial result. A first phase that
// fails ends the run as it would in sequence, with only its own Result.
func TestOverlapReplaysRefusedMerge(t *testing.T) {
	recs := kv(3000, 1<<20, 21)
	cases := []struct {
		name          string
		first, second func(*dram.HBM, *Result) ([]uint32, error)
		runs          int32
	}{
		{"merge refused", partitionPhase(recs, false), scanPhase(false), 2},
		{"fork failed", partitionPhase(recs, false), scanPhase(true), 2},
		{"first failed", partitionPhase(recs, true), scanPhase(false), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runPhases(tc.first, tc.second, serial[[]uint32])
			got := runPhases(tc.first, tc.second, overlap[[]uint32])
			if got.runs != tc.runs {
				t.Errorf("second phase ran %d times, want %d", got.runs, tc.runs)
			}
			got.runs, want.runs = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overlap differs from serial:\n got %s\nwant %s", summary(got), summary(want))
			}
		})
	}
}

func summary(r phaseRun) string {
	return fmt.Sprintf("a=%v b=%d words, %+v, counters %v, err %q", r.a, len(r.b), r.res, r.counters, r.err)
}
