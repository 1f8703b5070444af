package fabric

import (
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// TestDRAMNodePostedWriteZeroAlloc: once warmed, the posted-write path —
// backlog, SubmitAt, the in-place acknowledgement and Apply, the ready
// queue — allocates nothing per request, for plain writes and atomics.
func TestDRAMNodePostedWriteZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		op    spad.Op
		width int // atomics update a single word
	}{{spad.OpWrite, 4}, {spad.OpFAA, 1}, {spad.OpCAS, 1}} {
		op, width := tc.op, uint32(tc.width)
		t.Run(op.String(), func(t *testing.T) {
			h := dram.New(dram.DefaultConfig())
			g := NewGraph()
			g.AttachHBM(h)
			d := NewDRAMNode(g, "scatter", spad.Spec{
				Op:    op,
				Width: tc.width,
				// Wrap within one page so the measured runs never
				// allocate backing memory.
				Addr: func(r *record.Rec) uint32 { return r.Get(0) * width % 8192 },
				Data: func(r *record.Rec, i int) uint32 { return r.Get(1) + uint32(i) },
				Apply: func(r *record.Rec, resp []uint32) bool {
					*r = r.Append(uint32(len(resp)))
					return true
				},
			}, g.Link("in"), g.Link("out"))
			var cycle int64
			next := uint32(0)
			step := func() {
				for i := 0; i < record.NumLanes; i++ {
					*d.backlog.PushRefDirty() = record.Make(next, next*3)
					next++
				}
				d.submit(cycle)
				h.Tick(cycle)
				for d.ready.Len() > 0 {
					d.ready.Drop()
				}
				cycle++
			}
			for i := 0; i < 1000; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Fatalf("posted %s allocates %.1f times per %d requests; want 0", op, allocs, record.NumLanes)
			}
			if d.outstanding != 0 || d.backlog.Len() != 0 {
				t.Fatalf("outstanding=%d backlog=%d after acknowledged writes; want 0 and 0", d.outstanding, d.backlog.Len())
			}
			if got := d.reqCnt.Value(); got != int64(next) {
				t.Fatalf("dram_reqs=%d, want %d", got, next)
			}
		})
	}
}
