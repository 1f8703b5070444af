package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// drive ticks the model until all submitted requests complete.
func drive(t *testing.T, h *HBM, submit func(cycle int64) bool) int64 {
	t.Helper()
	var cycle int64
	submitted := false
	for cycle = 0; cycle < 10_000_000; cycle++ {
		if !submitted {
			submitted = submit(cycle)
		}
		h.Tick(cycle)
		if submitted && h.Drained() {
			return cycle
		}
	}
	t.Fatal("dram never drained")
	return cycle
}

func TestFunctionalReadWrite(t *testing.T) {
	h := New(DefaultConfig())
	if err := quick.Check(func(addr uint32, v uint32) bool {
		addr %= 1 << 24
		h.WriteWord(addr, v)
		return h.ReadWord(addr) == v
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestUntimedCopiesSpanPages: LoadWords and SnapshotWords copy runs that
// start before a page boundary and end after the next one, so one call
// touches three pages, and the words read back through the functional and
// timed paths match what was written. Neighbouring words stay zero.
func TestUntimedCopiesSpanPages(t *testing.T) {
	h := New(DefaultConfig())
	base := uint32(3*pageWords - 37)
	data := make([]uint32, pageWords+100)
	for i := range data {
		data[i] = uint32(i)*2654435761 + 1
	}
	h.LoadWords(base, data)
	got := h.SnapshotWords(base-1, len(data)+2)
	if got[0] != 0 || got[len(got)-1] != 0 {
		t.Fatalf("neighbours of the copy were written: %d, %d", got[0], got[len(got)-1])
	}
	for i, w := range data {
		if got[i+1] != w {
			t.Fatalf("word %d (addr %d): snapshot %d, loaded %d", i, base+uint32(i), got[i+1], w)
		}
		if r := h.ReadWord(base + uint32(i)); r != w {
			t.Fatalf("word %d (addr %d): ReadWord %d, loaded %d", i, base+uint32(i), r, w)
		}
	}
	// A timed read across both boundaries assembles its bursts from all
	// three pages.
	var read []uint32
	drive(t, h, func(cycle int64) bool {
		return h.SubmitAt(cycle, Request{Addr: base, Words: len(data), Done: func(d []uint32) { read = d }})
	})
	for i, w := range data {
		if read[i] != w {
			t.Fatalf("word %d (addr %d): timed read %d, loaded %d", i, base+uint32(i), read[i], w)
		}
	}
}

func TestTimedWriteThenRead(t *testing.T) {
	h := New(DefaultConfig())
	data := make([]uint32, 100)
	for i := range data {
		data[i] = uint32(i * 7)
	}
	var got []uint32
	done := 0
	drive(t, h, func(cycle int64) bool {
		ok := h.Submit(Request{Addr: 1000, Words: 100, Write: true, Data: data,
			Done: func([]uint32) { done++ }})
		return ok
	})
	drive(t, h, func(cycle int64) bool {
		return h.Submit(Request{Addr: 1000, Words: 100,
			Done: func(d []uint32) { got = append([]uint32(nil), d...); done++ }})
	})
	if done != 2 {
		t.Fatalf("completions=%d", done)
	}
	for i, v := range got {
		if v != data[i] {
			t.Fatalf("word %d = %d, want %d", i, v, data[i])
		}
	}
}

func TestUnalignedRequestSpansBursts(t *testing.T) {
	h := New(DefaultConfig())
	for i := uint32(0); i < 64; i++ {
		h.WriteWord(100+i, i)
	}
	var got []uint32
	drive(t, h, func(cycle int64) bool {
		// Start mid-burst, end mid-burst.
		return h.Submit(Request{Addr: 103, Words: 37,
			Done: func(d []uint32) { got = append([]uint32(nil), d...) }})
	})
	if len(got) != 37 {
		t.Fatalf("got %d words", len(got))
	}
	for i, v := range got {
		if v != uint32(i)+3 {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}

// TestStreamingBandwidth: a long sequential read must sustain close to peak
// bandwidth (row hits, all channels busy).
func TestStreamingBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	const words = 1 << 18 // 1 MiB
	reqs := 0
	const chunk = 4096
	cycles := drive(t, h, func(cycle int64) bool {
		for reqs < words/chunk {
			if !h.Submit(Request{Addr: uint32(reqs * chunk), Words: chunk}) {
				return false
			}
			reqs++
		}
		return true
	})
	bytes := float64(words * 4)
	bw := bytes / float64(cycles)
	peak := cfg.PeakBytesPerCycle()
	if bw < peak*0.5 {
		t.Errorf("sequential bandwidth %.1f B/cyc under half of peak %.1f", bw, peak)
	}
	hitRate := float64(h.RowHits) / float64(h.RowHits+h.RowMisses)
	if hitRate < 0.9 {
		t.Errorf("sequential row hit rate %.2f, want >0.9", hitRate)
	}
}

// TestSparseSlowerThanDense: random single-burst reads must achieve far
// lower bandwidth than streaming — the property that motivates the paper's
// dense partition layout (fig. 7b).
func TestSparseSlowerThanDense(t *testing.T) {
	cfg := DefaultConfig()
	run := func(random bool) float64 {
		h := New(cfg)
		rng := rand.New(rand.NewSource(1))
		const n = 4096
		issued := 0
		cycles := drive(t, h, func(cycle int64) bool {
			for issued < n {
				var addr uint32
				if random {
					addr = uint32(rng.Intn(1<<22)) &^ 15
				} else {
					addr = uint32(issued * cfg.BurstWords)
				}
				if !h.Submit(Request{Addr: addr, Words: cfg.BurstWords}) {
					return false
				}
				issued++
			}
			return true
		})
		return float64(n*cfg.BurstWords*4) / float64(cycles)
	}
	dense, sparse := run(false), run(true)
	if sparse >= dense {
		t.Errorf("sparse bw %.1f should be below dense bw %.1f", sparse, dense)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	h := New(cfg)
	ok := 0
	for i := 0; i < 100; i++ {
		if h.Submit(Request{Addr: 0, Words: cfg.BurstWords}) {
			ok++
		}
	}
	if ok >= 100 {
		t.Fatal("queue depth 2 accepted 100 same-channel requests without backpressure")
	}
	if h.Stalls == 0 {
		t.Error("stall counter not incremented")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Channels = 3
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-power-of-two channels must panic")
			}
		}()
		New(bad)
	}()
}

func TestPeakBandwidthMatchesHBM(t *testing.T) {
	// The default config should approximate a ~1 TB/s HBM at 1 GHz.
	peak := DefaultConfig().PeakBytesPerCycle()
	if peak < 512 || peak > 2048 {
		t.Errorf("peak %.0f B/cycle outside HBM-class range", peak)
	}
}

// TestPropertyReadAfterWriteConsistency: for any interleaving of posted
// writes and timed reads issued after them, reads must observe the data —
// the write buffer may defer traffic but never visibility.
func TestPropertyReadAfterWriteConsistency(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(DefaultConfig())
		type exp struct {
			addr uint32
			val  uint32
		}
		var expects []exp
		var pending int
		readBusy := map[uint32]int{} // addresses with in-flight reads
		ok := true
		var cycle int64
		for step := 0; step < 200; step++ {
			addr := uint32(rng.Intn(1 << 16))
			if rng.Intn(2) == 0 {
				// Posted writes become visible immediately, so writing an
				// address with an in-flight read would legitimately change
				// that read's answer; the property holds for the quiescent
				// case, which is what we generate.
				if readBusy[addr] > 0 {
					continue
				}
				val := rng.Uint32()
				if h.Submit(Request{Addr: addr, Words: 1, Write: true, Data: []uint32{val}}) {
					expects = append(expects, exp{addr, val})
				}
			} else if len(expects) > 0 {
				e := expects[rng.Intn(len(expects))]
				latest := e.val
				for _, x := range expects {
					if x.addr == e.addr {
						latest = x.val
					}
				}
				want := latest
				raddr := e.addr
				if h.Submit(Request{Addr: raddr, Words: 1, Done: func(d []uint32) {
					pending--
					readBusy[raddr]--
					if d[0] != want {
						ok = false
					}
				}}) {
					pending++
					readBusy[raddr]++
				}
			}
			h.Tick(cycle)
			cycle++
		}
		for i := 0; i < 100000 && (pending > 0 || !h.Drained()); i++ {
			h.Tick(cycle)
			cycle++
		}
		return ok && pending == 0
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestWriteCombiningReducesBursts(t *testing.T) {
	run := func(sequential bool) int64 {
		h := New(DefaultConfig())
		var cycle int64
		for i := 0; i < 2048; i++ {
			var addr uint32
			if sequential {
				addr = uint32(i) * 2 // adjacent slots share bursts
			} else {
				addr = uint32(i) * 4096 // every write its own burst
			}
			for !h.Submit(Request{Addr: addr, Words: 2, Write: true, Data: []uint32{1, 2}}) {
				h.Tick(cycle)
				cycle++
			}
			h.Tick(cycle)
			cycle++
		}
		h.FlushWrites()
		for !h.Drained() {
			h.Tick(cycle)
			cycle++
		}
		return h.WriteBursts
	}
	seq, sparse := run(true), run(false)
	if seq*4 > sparse {
		t.Errorf("sequential writes used %d bursts vs sparse %d; combining ineffective", seq, sparse)
	}
}
