package dram

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"aurochs/internal/ring"
)

// refHBM is the HBM model before completions moved to per-latency FIFOs
// and the write buffer to an ordered slice: every Tick scans the whole
// in-flight list, and the write-combining buffer is a map whose (age,
// address) minimum is cached and rebuilt by a full rescan. It exists only
// as the oracle for the differential tests below.
type refHBM struct {
	cfg        Config
	chans      []*refChannel
	pages      map[uint32][]uint32
	burstShift uint
	chanMask   uint32
	inflight   []refCompletion
	now        int64
	need       []int

	ReadBursts, WriteBursts, RowHits, RowMisses, Stalls, CoalescedWrites int64
}

type refChannel struct {
	queue     ring.Queue[burst]
	busy      int64
	openRow   []int
	writeBuf  map[uint32]int64
	wbMinAddr uint32
	wbMinAt   int64
	wbMinOK   bool
}

type refCompletion struct {
	at int64
	b  burst
}

func newRefHBM(cfg Config) *refHBM {
	h := &refHBM{
		cfg:        cfg,
		pages:      make(map[uint32][]uint32),
		burstShift: uint(bits.TrailingZeros32(uint32(cfg.BurstWords))),
		chanMask:   uint32(cfg.Channels - 1),
		need:       make([]int, cfg.Channels),
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &refChannel{openRow: make([]int, cfg.BanksPerChannel), writeBuf: make(map[uint32]int64)}
		for b := range ch.openRow {
			ch.openRow[b] = -1
		}
		h.chans = append(h.chans, ch)
	}
	return h
}

func (c *refChannel) wbRecomputeMin() {
	c.wbMinOK = false
	for a, at := range c.writeBuf {
		if !c.wbMinOK || at < c.wbMinAt || (at == c.wbMinAt && a < c.wbMinAddr) {
			c.wbMinAddr, c.wbMinAt, c.wbMinOK = a, at, true
		}
	}
}

func (h *refHBM) page(addr uint32) []uint32 {
	id := addr / pageWords
	p := h.pages[id]
	if p == nil {
		p = make([]uint32, pageWords)
		h.pages[id] = p
	}
	return p
}

func (h *refHBM) ReadWord(addr uint32) uint32     { return h.page(addr)[addr%pageWords] }
func (h *refHBM) WriteWord(addr uint32, v uint32) { h.page(addr)[addr%pageWords] = v }

func (h *refHBM) locate(addr uint32) (ch, bank, row int) {
	burstIdx := addr >> h.burstShift
	ch = int(burstIdx & h.chanMask)
	local := burstIdx >> uint(bits.TrailingZeros32(uint32(h.cfg.Channels)))
	burstsPerRow := uint32(h.cfg.RowWords / h.cfg.BurstWords)
	row = int(local / burstsPerRow)
	bank = row % h.cfg.BanksPerChannel
	return ch, bank, row
}

func (h *refHBM) SubmitAt(now int64, req Request) bool {
	first := req.Addr >> h.burstShift
	last := (req.Addr + uint32(req.Words) - 1) >> h.burstShift
	n := int(last - first + 1)
	need := h.need
	for i := range need {
		need[i] = 0
	}
	for b := first; b <= last; b++ {
		ch, _, _ := h.locate(b << h.burstShift)
		need[ch]++
	}
	for ch, k := range need {
		if k > 0 && h.chans[ch].queue.Len()+k > h.cfg.QueueDepth {
			h.Stalls++
			return false
		}
	}
	if req.Write {
		for i := 0; i < req.Words; i++ {
			h.WriteWord(req.Addr+uint32(i), req.Data[i])
		}
		for b := first; b <= last; b++ {
			addr := b << h.burstShift
			ch, _, _ := h.locate(addr)
			h.postWrite(h.chans[ch], addr, now)
		}
		if req.Done != nil {
			req.Done(nil)
		}
		return true
	}
	p := &pendingReq{req: req, remaining: n, data: make([]uint32, req.Words)}
	for b := first; b <= last; b++ {
		addr := b << h.burstShift
		ch, bank, row := h.locate(addr)
		h.chans[ch].queue.Push(burst{req: p, addr: addr, bank: bank, row: row})
	}
	return true
}

func (h *refHBM) postWrite(c *refChannel, addr uint32, now int64) {
	if _, hit := c.writeBuf[addr]; hit {
		h.CoalescedWrites++
		c.writeBuf[addr] = now
		if c.wbMinOK && addr == c.wbMinAddr {
			c.wbRecomputeMin()
		}
		return
	}
	if len(c.writeBuf) >= wbCap {
		if !c.wbMinOK {
			c.wbRecomputeMin()
		}
		h.evictWrite(c, c.wbMinAddr)
	}
	c.writeBuf[addr] = now
	if !c.wbMinOK || now < c.wbMinAt || (now == c.wbMinAt && addr < c.wbMinAddr) {
		c.wbMinAddr, c.wbMinAt, c.wbMinOK = addr, now, true
	}
}

func (h *refHBM) evictWrite(c *refChannel, addr uint32) {
	delete(c.writeBuf, addr)
	_, bank, row := h.locate(addr)
	c.queue.Push(burst{req: nil, addr: addr, bank: bank, row: row})
	if c.wbMinOK && addr == c.wbMinAddr {
		c.wbRecomputeMin()
	}
}

func (h *refHBM) Tick(cycle int64) {
	h.now = cycle
	for _, ch := range h.chans {
		if ch.queue.Len() < h.cfg.QueueDepth && ch.wbMinOK && cycle-ch.wbMinAt > wbFlushAge {
			h.evictWrite(ch, ch.wbMinAddr)
		}
		if ch.queue.Len() == 0 || ch.busy > cycle {
			continue
		}
		b := ch.queue.Pop()
		lat := int64(h.cfg.RowHitLatency)
		if ch.openRow[b.bank] != b.row {
			lat += int64(h.cfg.RowMissPenalty)
			ch.openRow[b.bank] = b.row
			h.RowMisses++
		} else {
			h.RowHits++
		}
		ch.busy = cycle + int64(h.cfg.BurstCycles)
		h.inflight = append(h.inflight, refCompletion{at: cycle + lat, b: b})
	}
	n := 0
	for _, c := range h.inflight {
		if c.at > cycle {
			h.inflight[n] = c
			n++
			continue
		}
		h.finishBurst(c.b)
	}
	h.inflight = h.inflight[:n]
}

func (h *refHBM) finishBurst(b burst) {
	if b.req == nil {
		h.WriteBursts++
		return
	}
	p := b.req
	req := p.req
	lo := b.addr
	if req.Addr > lo {
		lo = req.Addr
	}
	hi := b.addr + uint32(h.cfg.BurstWords)
	if end := req.Addr + uint32(req.Words); end < hi {
		hi = end
	}
	for a := lo; a < hi; a++ {
		p.data[int(a-req.Addr)] = h.ReadWord(a)
	}
	h.ReadBursts++
	p.remaining--
	if p.remaining == 0 && req.Done != nil {
		req.Done(p.data)
	}
}

func (h *refHBM) ResetClock() {
	for _, ch := range h.chans {
		ch.busy = 0
		for a := range ch.writeBuf {
			ch.writeBuf[a] = 0
		}
		ch.wbRecomputeMin()
	}
	h.now = 0
}

func (h *refHBM) Drained() bool {
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 {
			return false
		}
	}
	return len(h.inflight) == 0
}

func (h *refHBM) FlushWrites() {
	for _, ch := range h.chans {
		for a := range ch.writeBuf {
			delete(ch.writeBuf, a)
			h.WriteBursts++
		}
		ch.wbMinOK = false
	}
}

func (h *refHBM) counters() [6]int64 {
	return [6]int64{h.ReadBursts, h.WriteBursts, h.RowHits, h.RowMisses, h.Stalls, h.CoalescedWrites}
}

func (h *HBM) counters() [6]int64 {
	return [6]int64{h.ReadBursts, h.WriteBursts, h.RowHits, h.RowMisses, h.Stalls, h.CoalescedWrites}
}

// event is one Done callback as a requester saw it.
type event struct {
	cycle int64
	id    int
	data  []uint32
}

// refPair runs a model and the oracle through seeded phases of random
// traffic in one region of memory and logs every callback each of them
// fires.
type refPair struct {
	rng       *rand.Rand
	cfg       Config
	base      uint32 // start of the region the traffic addresses
	streams   [4]uint32
	got, want []event
	cycle     int64
	id        int
}

// refConfig draws a random model configuration.
func refConfig(rng *rand.Rand) Config {
	cfg := Config{
		Channels:        1 << rng.Intn(5),
		BanksPerChannel: 1 + rng.Intn(4),
		BurstWords:      4 << rng.Intn(3),
		RowHitLatency:   rng.Intn(70),
		RowMissPenalty:  rng.Intn(40),
		BurstCycles:     1 + rng.Intn(2),
		QueueDepth:      1 + rng.Intn(32),
	}
	cfg.RowWords = cfg.BurstWords << rng.Intn(5)
	return cfg
}

// preload writes the same random chunks, untimed, into the model and the
// oracle.
func (d *refPair) preload(h *HBM, ref *refHBM) {
	for i := 0; i < 4; i++ {
		base, n := d.base+uint32(d.rng.Intn(4*pageWords)), 1+d.rng.Intn(2*pageWords)
		d.load(h, ref, base, n)
	}
}

// load writes n random words at base into the model and the oracle.
func (d *refPair) load(h *HBM, ref *refHBM, base uint32, n int) {
	data := make([]uint32, n)
	for j := range data {
		data[j] = d.rng.Uint32()
	}
	h.LoadWords(base, data)
	for j, v := range data {
		ref.WriteWord(base+uint32(j), v)
	}
}

// startStreams places the four sequential streams in the region.
func (d *refPair) startStreams() {
	for i := range d.streams {
		d.streams[i] = d.base + uint32(d.rng.Intn(4*pageWords))
	}
}

// checkCallbacks compares the callbacks the model and the oracle fired.
func (d *refPair) checkCallbacks(phase int) error {
	if len(d.got) != len(d.want) {
		return fmt.Errorf("phase %d cycle %d: %d callbacks, oracle %d", phase, d.cycle, len(d.got), len(d.want))
	}
	for i := range d.got {
		g, w := d.got[i], d.want[i]
		if g.cycle != w.cycle || g.id != w.id || !slices.Equal(g.data, w.data) {
			return fmt.Errorf("phase %d callback %d: got (cycle %d, req %d, %d words), oracle (cycle %d, req %d, %d words)",
				phase, i, g.cycle, g.id, len(g.data), w.cycle, w.id, len(w.data))
		}
	}
	return nil
}

// check compares the callbacks, the counters and the bytes moved.
func (d *refPair) check(h *HBM, ref *refHBM, phase int) error {
	if err := d.checkCallbacks(phase); err != nil {
		return err
	}
	if h.counters() != ref.counters() {
		return fmt.Errorf("phase %d cycle %d: counters %v, oracle %v", phase, d.cycle, h.counters(), ref.counters())
	}
	if h.BytesMoved() != (ref.ReadBursts+ref.WriteBursts)*int64(d.cfg.BurstWords)*4 {
		return fmt.Errorf("phase %d: BytesMoved diverged", phase)
	}
	return nil
}

// phase runs one phase of traffic on the model and the oracle until both
// drain. The oracle ticks every cycle. The model ticks every cycle too
// unless sparse is set; then it is driven the way the fabric runner
// drives it — ticked only on cycles where QuiescentAt is false.
func (d *refPair) phase(h *HBM, ref *refHBM, phase int, sparse bool) error {
	rng, cfg := d.rng, d.cfg
	record := func(log *[]event, id int) func([]uint32) {
		return func(data []uint32) {
			*log = append(*log, event{cycle: d.cycle, id: id, data: slices.Clone(data)})
		}
	}
	active := int64(200 + rng.Intn(1500))
	retry := []Request(nil)
	for d.cycle = 0; ; d.cycle++ {
		cycle := d.cycle
		if cycle >= active && len(retry) == 0 && h.Drained() && ref.Drained() {
			return nil
		}
		if cycle > active+1_000_000 {
			return fmt.Errorf("phase %d: never drained", phase)
		}
		// Submissions: retries first, then fresh requests in bursty
		// cycles, with idle gaps long enough for write age-outs.
		var reqs []Request
		reqs, retry = retry, nil
		if cycle < active && (cycle/64)%8 != 7 {
			for k := rng.Intn(4); k > 0; k-- {
				var addr uint32
				switch rng.Intn(3) {
				case 0: // sequential stream: row hits, combining
					s := rng.Intn(len(d.streams))
					addr = d.streams[s]
					d.streams[s] += uint32(1 + rng.Intn(8))
				case 1: // near a page boundary
					addr = d.base + uint32(1+rng.Intn(4))*pageWords - uint32(rng.Intn(20))
				default: // scattered: row misses
					addr = d.base + uint32(rng.Intn(4*pageWords))
				}
				words := 1 + rng.Intn(40)
				if rng.Intn(4) == 0 {
					words = 1 + rng.Intn(cfg.BurstWords)
				}
				req := Request{Addr: addr, Words: words, Write: rng.Intn(2) == 0}
				if req.Write {
					req.Data = make([]uint32, words)
					for j := range req.Data {
						req.Data[j] = rng.Uint32()
					}
				}
				reqs = append(reqs, req)
			}
		}
		for _, req := range reqs {
			d.id++
			a, b := req, req
			a.Done, b.Done = record(&d.got, d.id), record(&d.want, d.id)
			okA, okB := h.SubmitAt(cycle, a), ref.SubmitAt(cycle, b)
			if okA != okB {
				return fmt.Errorf("phase %d cycle %d: submit accepted=%v, oracle %v", phase, cycle, okA, okB)
			}
			if !okA && rng.Intn(4) != 0 {
				retry = append(retry, req)
			}
		}

		if !sparse || !h.QuiescentAt(cycle) {
			h.Tick(cycle)
		}
		ref.Tick(cycle)
		if h.Drained() != ref.Drained() {
			return fmt.Errorf("phase %d cycle %d: Drained=%v, oracle %v", phase, cycle, h.Drained(), ref.Drained())
		}
	}
}

// refDiff drives the model and the oracle with one seeded workload of
// four phases and returns the first divergence.
func refDiff(seed int64, sparse bool) error {
	rng := rand.New(rand.NewSource(seed))
	d := &refPair{rng: rng, cfg: refConfig(rng)}
	h, ref := New(d.cfg), newRefHBM(d.cfg)
	d.preload(h, ref)
	d.startStreams()
	for phase := 0; phase < 4; phase++ {
		if err := d.phase(h, ref, phase, sparse); err != nil {
			return err
		}
		if err := d.check(h, ref, phase); err != nil {
			return err
		}
		// Between phases: sometimes flush, always rebase the clock.
		if rng.Intn(2) == 0 {
			h.FlushWrites()
			ref.FlushWrites()
			if err := d.check(h, ref, phase); err != nil {
				return err
			}
		}
		h.ResetClock()
		ref.ResetClock()
	}
	for i := 0; i < 4; i++ {
		addr := uint32(rng.Intn(4 * pageWords))
		if !slices.Equal(h.SnapshotWords(addr, 300), refSnapshot(ref, addr, 300)) {
			return fmt.Errorf("memory contents diverged at %d", addr)
		}
	}
	h.FlushWrites()
	ref.FlushWrites()
	return d.check(h, ref, -1)
}

func refSnapshot(h *refHBM, base uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = h.ReadWord(base + uint32(i))
	}
	return out
}

// TestHBMMatchesReference: the FIFO-retire, ordered-write-buffer model
// fires the same callbacks at the same cycles with the same data, and
// keeps the same counters, as the list-scan, map-buffer oracle — both
// when ticked every cycle and when ticked only on cycles where it is not
// quiescent.
func TestHBMMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, sparse := range []bool{false, true} {
			if err := refDiff(seed, sparse); err != nil {
				t.Fatalf("seed %d sparse=%v: %v", seed, sparse, err)
			}
		}
	}
}

// FuzzHBMReference explores workloads and configurations beyond the fixed
// seeds of TestHBMMatchesReference.
func FuzzHBMReference(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1 << 40} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, sparse bool) {
		if err := refDiff(seed, sparse); err != nil {
			t.Fatal(err)
		}
	})
}
