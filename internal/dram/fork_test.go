package dram

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// forkBase and forkPages place the fork's phase in forkDiff: sixteen pages
// up, clear of every page and row the first phase's traffic reaches.
const (
	forkBase  = 16 * pageWords
	forkPages = 8
)

// forkDiff runs one seeded phase on the model and the next phase, in a
// disjoint region, on a fork of it, then merges the fork. The oracle runs
// both phases in sequence on one memory. The merge must be accepted, and
// afterwards the model's callbacks, counters, open rows, clock and memory
// contents must equal the oracle's.
func forkDiff(seed int64, eventDriven bool) error {
	rng := rand.New(rand.NewSource(seed))
	d := &refPair{rng: rng, cfg: refConfig(rng)}
	h, ref := New(d.cfg), newRefHBM(d.cfg)
	d.preload(h, ref)
	d.startStreams()
	if err := d.phase(h, ref, 0, eventDriven); err != nil {
		return err
	}
	h.FlushWrites()
	ref.FlushWrites()
	if err := d.check(h, ref, 0); err != nil {
		return err
	}

	// The fork writes every page of its region before its traffic starts,
	// so it reads only pages it wrote.
	f := h.Fork()
	ref.ResetClock()
	d.base = forkBase
	d.load(f, ref, d.base, forkPages*pageWords)
	d.startStreams()
	if err := d.phase(f, ref, 1, eventDriven); err != nil {
		return err
	}
	f.FlushWrites()
	ref.FlushWrites()
	if err := d.checkCallbacks(1); err != nil {
		return err
	}
	if !h.Merge(f) {
		return fmt.Errorf("merge of a fork on a disjoint region refused")
	}
	if err := d.check(h, ref, 1); err != nil {
		return err
	}
	if h.now != ref.now {
		return fmt.Errorf("clock %d, oracle %d", h.now, ref.now)
	}
	for c, ch := range h.chans {
		if !slices.Equal(ch.openRow, ref.chans[c].openRow) || ch.busy != ref.chans[c].busy {
			return fmt.Errorf("channel %d: open rows %v busy %d, oracle %v busy %d",
				c, ch.openRow, ch.busy, ref.chans[c].openRow, ref.chans[c].busy)
		}
	}
	const words = (forkBase + forkPages*pageWords) * 3 / 2
	if !slices.Equal(h.SnapshotWords(0, words), refSnapshot(ref, 0, words)) {
		return fmt.Errorf("memory contents diverged")
	}
	return nil
}

// TestForkMergeMatchesSerial: a phase simulated on a fork and merged
// leaves the model exactly where the oracle is after running the two
// phases one after the other.
func TestForkMergeMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, ev := range []bool{false, true} {
			if err := forkDiff(seed, ev); err != nil {
				t.Fatalf("seed %d eventDriven=%v: %v", seed, ev, err)
			}
		}
	}
}

// hbmState is everything Merge may change.
type hbmState struct {
	counters [6]int64
	openRows [][]int
	busy     []int64
	now      int64
	pages    map[uint32][]uint32
}

func stateOf(h *HBM) hbmState {
	s := hbmState{counters: h.counters(), now: h.now, pages: maps.Clone(h.pages)}
	for id, p := range s.pages {
		s.pages[id] = slices.Clone(p)
	}
	for _, ch := range h.chans {
		s.openRows = append(s.openRows, slices.Clone(ch.openRow))
		s.busy = append(s.busy, ch.busy)
	}
	return s
}

// TestMergeRefusals: each of the three cases where a fork's phase could
// have gone differently on its parent makes Merge return false and leave
// the parent unchanged; a fork that avoids all three merges.
func TestMergeRefusals(t *testing.T) {
	// A 1024-word row spans four pages across the 16 channels, so a fork
	// can open the parent's row in a page the parent never touched.
	cfg := DefaultConfig()
	cfg.RowWords = 1024
	rowSpan := uint32(cfg.RowWords * cfg.Channels)
	read := func(h *HBM, addr uint32) {
		drive(t, h, func(cycle int64) bool {
			return h.SubmitAt(cycle, Request{Addr: addr, Words: cfg.BurstWords})
		})
	}
	load := func(h *HBM, addr uint32) { h.LoadWords(addr, []uint32{1, 2, 3}) }

	cases := []struct {
		name string
		fork func(f *HBM)
		want bool
	}{
		{"disjoint rows and pages", func(f *HBM) { load(f, 2*rowSpan); read(f, 2*rowSpan) }, true},
		{"first row is the parent's open row", func(f *HBM) { load(f, pageWords); read(f, pageWords) }, false},
		{"timed read of a page the fork did not write", func(f *HBM) { read(f, 2*rowSpan) }, false},
		{"untimed read of a page the fork did not write", func(f *HBM) { f.ReadWord(2 * rowSpan) }, false},
		{"both wrote the same page", func(f *HBM) { load(f, 8) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(cfg)
			load(h, 0)
			read(h, 0) // opens row 0 of bank 0 in channel 0
			f := h.Fork()
			tc.fork(f)
			f.FlushWrites()
			before := stateOf(h)
			if got := h.Merge(f); got != tc.want {
				t.Fatalf("Merge = %v, want %v", got, tc.want)
			}
			if !tc.want && !reflect.DeepEqual(stateOf(h), before) {
				t.Fatal("a refused merge changed the parent")
			}
			if tc.want && h.counters() == before.counters {
				t.Fatal("an accepted merge did not add the fork's counters")
			}
		})
	}
}

// TestMergeOfAStranger: Merge panics on an HBM that is not h's fork.
func TestMergeOfAStranger(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge accepted an HBM that is not a fork")
		}
	}()
	New(DefaultConfig()).Merge(New(DefaultConfig()))
}
