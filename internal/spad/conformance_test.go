package spad

import (
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// TestTileIdleConformance: the scratchpad pipeline honours the Idler
// contract under sim.VerifyIdleContract in both dequeue disciplines —
// every Idle=true answer is backed by a provably no-op Tick, and the
// stream still drains.
func TestTileIdleConformance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inOrder bool
	}{
		{"reordering", false},
		{"inorder", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMem(16, 64, 0)
			for i := 0; i < mem.Words(); i++ {
				mem.Write(uint32(i), uint32(i*7))
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
				// Collide addresses deliberately: bank conflicts exercise the
				// queue-occupancy half of Idle.
				recs = append(recs, record.Make(uint32(i%32)))
			}
			cfg := DefaultConfig("tile")
			cfg.InOrder = tc.inOrder
			sys := sim.NewSystem()
			in := sys.NewLink("in", 8, 1)
			out := sys.NewLink("out", 8, 1)
			sys.Add(&vecSource{out: in, vecs: vectorize(recs)})
			sys.Add(NewTile(cfg, mem, spec, in, out, sys.Stats()))
			sys.Add(&vecSink{in: out})
			if err := sim.VerifyIdleContract(sys, 1_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}
