package blueprint

import (
	"fmt"
	"testing"

	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// runFingerprint captures everything the simulated contract pins: elapsed
// cycles, the full stats counter set, DRAM traffic, per-link push/pop
// totals, and every sink's records bit-for-bit.
type runFingerprint struct {
	cycles int64
	stats  string
	dram   int64
	links  []string
	sinks  [][]record.Rec
}

// runBlueprint builds a fresh instance, checks it, and runs it on the event
// kernel or, with polling set, on the polling reference (every component
// ticks every cycle), returning the execution fingerprint.
func runBlueprint(t *testing.T, bp Blueprint, polling bool) runFingerprint {
	t.Helper()
	g, err := bp.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	cycles, err := g.Sys.RunWith(2_000_000, sim.RunOptions{NoIdleSkip: polling})
	if err != nil {
		t.Fatalf("polling=%v: %v", polling, err)
	}
	fp := runFingerprint{cycles: cycles, stats: g.Stats().String()}
	if g.HBM != nil {
		fp.dram = g.HBM.BytesMoved()
	}
	for _, l := range g.Sys.Links() {
		fp.links = append(fp.links, fmt.Sprintf("%s:%d/%d", l.Name(), l.Pushes(), l.Pops()))
	}
	for _, c := range g.Sys.Components() {
		if s, ok := c.(*fabric.Sink); ok {
			fp.sinks = append(fp.sinks, s.Records())
		}
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, ref, got runFingerprint) {
	t.Helper()
	if got.cycles != ref.cycles {
		t.Errorf("%s: cycles %d != reference %d", label, got.cycles, ref.cycles)
	}
	if got.stats != ref.stats {
		t.Errorf("%s: stats diverge\nreference:\n%s\ngot:\n%s", label, ref.stats, got.stats)
	}
	if got.dram != ref.dram {
		t.Errorf("%s: DRAM traffic %d bytes != reference %d", label, got.dram, ref.dram)
	}
	if len(got.links) != len(ref.links) {
		t.Fatalf("%s: link census differs (%d vs %d)", label, len(got.links), len(ref.links))
	}
	for i := range ref.links {
		if got.links[i] != ref.links[i] {
			t.Errorf("%s: link %s != reference %s", label, got.links[i], ref.links[i])
		}
	}
	if len(got.sinks) != len(ref.sinks) {
		t.Fatalf("%s: sink census differs (%d vs %d)", label, len(got.sinks), len(ref.sinks))
	}
	for i := range ref.sinks {
		if len(got.sinks[i]) != len(ref.sinks[i]) {
			t.Errorf("%s: sink %d holds %d records, reference %d", label, i, len(got.sinks[i]), len(ref.sinks[i]))
			continue
		}
		for j := range ref.sinks[i] {
			if got.sinks[i][j] != ref.sinks[i][j] {
				t.Errorf("%s: sink %d record %d differs: %v vs %v", label, i, j, got.sinks[i][j], ref.sinks[i][j])
				break
			}
		}
	}
}

// TestIdleSkipEquivalence is the event-kernel conformance gate: on every
// registered blueprint, skipping idle components must be observably
// identical to the polling reference that ticks every component every
// cycle — same cycles, same stats, same DRAM traffic, same per-link flit
// totals, same sink records. A failure means some component's Tick depends
// on how long it slept: an Idle answer that hid real work, a missed wake,
// or state advanced per tick rather than per cycle.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, bp := range All() {
		bp := bp
		t.Run(bp.Name, func(t *testing.T) {
			ref := runBlueprint(t, bp, true)
			diffFingerprints(t, "event", ref, runBlueprint(t, bp, false))
		})
	}
}
