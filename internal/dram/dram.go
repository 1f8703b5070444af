// Package dram models the HBM main memory behind the Aurochs fabric. The
// paper uses Ramulator for cycle-accurate HBM simulation; this model keeps
// the properties the evaluation depends on — bandwidth saturation shared by
// all pipelines, burst granularity, and row-buffer locality that makes
// dense streaming much cheaper than sparse scatter/gather — while
// simplifying DDR command timing to a hit/miss latency pair.
//
// Defaults approximate a 1 TB/s HBM2e part at the fabric's 1 GHz clock:
// 16 pseudo-channels × 64 B bursts × 1 burst/cycle/channel = 1024 B/cycle.
package dram

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"aurochs/internal/ring"
)

// Config sizes the HBM model.
type Config struct {
	// Channels is the pseudo-channel count (power of two).
	Channels int
	// BanksPerChannel is the banks each channel interleaves across.
	BanksPerChannel int
	// RowWords is the row-buffer size in 32-bit words (1 KiB row = 256).
	RowWords int
	// BurstWords is the access granularity in words (64 B burst = 16).
	BurstWords int
	// RowHitLatency is the load-to-use latency for an open row, cycles.
	RowHitLatency int
	// RowMissPenalty is added on a row-buffer miss (precharge+activate).
	RowMissPenalty int
	// BurstCycles is the channel occupancy of one burst.
	BurstCycles int
	// QueueDepth is the per-channel request queue depth.
	QueueDepth int
}

// DefaultConfig returns the HBM configuration used throughout the repo.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		BanksPerChannel: 16,
		RowWords:        256,
		BurstWords:      16,
		RowHitLatency:   64,
		RowMissPenalty:  32,
		BurstCycles:     1,
		QueueDepth:      32,
	}
}

func (c *Config) validate() error {
	if c.Channels <= 0 || c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("dram: channels must be a power of two, got %d", c.Channels)
	}
	if c.BurstWords <= 0 || c.BurstWords&(c.BurstWords-1) != 0 {
		return fmt.Errorf("dram: burst words must be a power of two, got %d", c.BurstWords)
	}
	if c.BurstWords > pageWords {
		return fmt.Errorf("dram: burst words %d exceed the %d-word page", c.BurstWords, pageWords)
	}
	if c.RowWords%c.BurstWords != 0 {
		return fmt.Errorf("dram: row words %d not a multiple of burst words %d", c.RowWords, c.BurstWords)
	}
	return nil
}

// PeakBytesPerCycle returns the theoretical bandwidth of this config.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Channels) * float64(c.BurstWords) * 4 / float64(c.BurstCycles)
}

// Request is one memory operation: Words 32-bit words at word address Addr.
// Done fires at completion with the read data (nil for writes).
//
// Buffer ownership: a write's Data is copied in before SubmitAt returns,
// so the requester may reuse it at once. A write with nil Data is
// timing-only: it costs the same bursts and stores nothing, for requesters
// that keep the data on the host themselves (a spill queue). For a read,
// Data is optional: when its capacity covers Words, the HBM fills
// Data[:Words] and passes that slice to Done, so a requester that recycles
// one buffer per outstanding read allocates nothing. The buffer belongs to
// the HBM from an accepted SubmitAt until Done fires, and the requester
// must not touch it in between. A read without such a buffer gets a fresh
// one the callee may keep.
type Request struct {
	Addr  uint32
	Words int
	Write bool
	Data  []uint32
	Done  func(data []uint32)
}

type burst struct {
	req       *pendingReq
	addr      uint32 // word address of burst start
	bank, row int
}

type pendingReq struct {
	req       Request
	remaining int
	data      []uint32
}

type channel struct {
	queue   ring.Queue[burst]
	busy    int64 // channel free at this cycle
	openRow []int // per-bank open row (-1 closed)
	// firstRow is, in a fork only, the row each bank opened first (-1
	// untouched); Merge compares it with the parent's open row.
	firstRow []int
	// writeBuf is the controller's posted-write combining buffer: at most
	// wbCap resident bursts, kept sorted by (insertion cycle, address).
	// Writes to a resident burst merge for free; entries retire to the
	// queue on eviction or age-out, and the head is both the eviction
	// victim and the next age-out candidate.
	writeBuf []wbEntry
}

// wbEntry is one resident posted-write burst.
type wbEntry struct {
	at   int64  // cycle of the latest write to the burst
	addr uint32 // burst address
}

func (e wbEntry) before(o wbEntry) bool {
	return e.at < o.at || (e.at == o.at && e.addr < o.addr)
}

// wbFind returns addr's index in the write buffer, or -1. The scan runs
// from the tail because streaming writers hit the burst they wrote last.
func (c *channel) wbFind(addr uint32) int {
	for i := len(c.writeBuf) - 1; i >= 0; i-- {
		if c.writeBuf[i].addr == addr {
			return i
		}
	}
	return -1
}

// wbInsert adds e in (cycle, address) order. Writes arrive in
// nondecreasing cycles, so the scan back from the tail stops within the
// entries of the current cycle.
func (c *channel) wbInsert(e wbEntry) {
	n := len(c.writeBuf)
	wb := c.writeBuf[:n+1]
	i := n
	for ; i > 0 && e.before(wb[i-1]); i-- {
		wb[i] = wb[i-1]
	}
	wb[i] = e
	c.writeBuf = wb
}

// wbRemove deletes entry i, keeping the order of the rest.
func (c *channel) wbRemove(i int) {
	c.writeBuf = c.writeBuf[:i+copy(c.writeBuf[i:], c.writeBuf[i+1:])]
}

// Write-buffer geometry: wbCap bursts per channel (a few KiB of combining
// storage), flushed after wbFlushAge cycles without needing eviction.
const (
	wbCap      = 64
	wbFlushAge = 512
)

// HBM is the memory device plus its channel scheduler. The owning system
// ticks it whenever QuiescentAt says a tick would do something; fabric
// nodes call SubmitAt.
type HBM struct {
	cfg   Config
	chans []*channel
	pages map[uint32][]uint32
	// pageID/pageBuf cache the last page touched: bursts and payloads walk
	// memory sequentially, so most lookups skip the map.
	pageID  uint32
	pageBuf []uint32

	burstShift uint
	chanMask   uint32
	// hits and misses hold issued bursts awaiting completion, one FIFO per
	// latency class. Bursts issue in nondecreasing cycles and each class
	// has a fixed latency, so each FIFO is ordered by completion cycle;
	// seq (issue order) merges their matured fronts.
	hits, misses ring.Queue[completion]
	seq          uint64
	now          int64
	need         []int         // scratch for SubmitAt's per-channel reservation tally
	freeReqs     []*pendingReq // retired read records, reused by SubmitAt
	// forkOf is the HBM this one was forked from (nil otherwise), and
	// readForeign records that the fork read a page it had not written.
	forkOf      *HBM
	readForeign bool

	// Stats
	ReadBursts  int64
	WriteBursts int64
	RowHits     int64
	RowMisses   int64
	Stalls      int64
	// CoalescedWrites counts write bursts absorbed by the controller's
	// write-combining buffer (no extra channel occupancy).
	CoalescedWrites int64
}

// pageWords sizes the backing pages, allocated on first touch (16 KiB).
// It sets host memory only; timing depends on addresses, never on pages.
// Sparse regions such as a join's partition arenas and overflow buffers
// each pin whole pages, and smaller pages saved no more memory on the
// join benchmark (EXPERIMENTS.md).
const pageWords = 1 << 12

// New builds an HBM instance.
func New(cfg Config) *HBM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	h := &HBM{
		cfg:        cfg,
		pages:      make(map[uint32][]uint32),
		burstShift: uint(bits.TrailingZeros32(uint32(cfg.BurstWords))),
		chanMask:   uint32(cfg.Channels - 1),
		need:       make([]int, cfg.Channels),
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{openRow: make([]int, cfg.BanksPerChannel), writeBuf: make([]wbEntry, 0, wbCap)}
		for b := range ch.openRow {
			ch.openRow[b] = -1
		}
		h.chans = append(h.chans, ch)
	}
	return h
}

// Config returns the model's configuration.
func (h *HBM) Config() Config { return h.cfg }

// page returns the backing page for addr, allocating on first touch. Only
// writes allocate; reads go through readSpan.
func (h *HBM) page(addr uint32) []uint32 {
	id := addr / pageWords
	if h.pageBuf != nil && id == h.pageID {
		return h.pageBuf
	}
	p := h.pages[id]
	if p == nil {
		p = make([]uint32, pageWords)
		h.pages[id] = p
	}
	h.pageID, h.pageBuf = id, p
	return p
}

// span returns the backing words from addr to the end of its page.
func (h *HBM) span(addr uint32) []uint32 {
	return h.page(addr)[addr%pageWords:]
}

// zeroPage backs reads of pages never written: they read as zeros without
// allocating a page. It is never written.
var zeroPage [pageWords]uint32

// readSpan is span for reads: a page never written reads from zeroPage
// instead of being allocated. A fork notes the read, since its parent's
// copy of the page might not be zeros.
func (h *HBM) readSpan(addr uint32) []uint32 {
	if id := addr / pageWords; (h.pageBuf == nil || id != h.pageID) && h.pages[id] == nil {
		if h.forkOf != nil {
			h.readForeign = true
		}
		return zeroPage[addr%pageWords:]
	}
	return h.span(addr)
}

// ReadWord performs an untimed functional read (setup and verification).
func (h *HBM) ReadWord(addr uint32) uint32 {
	return h.readSpan(addr)[0]
}

// WriteWord performs an untimed functional write (setup and verification).
func (h *HBM) WriteWord(addr uint32, v uint32) {
	h.page(addr)[addr%pageWords] = v
}

// LoadWords copies data into memory starting at base (untimed).
func (h *HBM) LoadWords(base uint32, data []uint32) {
	for off := 0; off < len(data); {
		off += copy(h.span(base+uint32(off)), data[off:])
	}
}

// SnapshotWords reads n words starting at base (untimed).
func (h *HBM) SnapshotWords(base uint32, n int) []uint32 {
	return h.ReadWords(make([]uint32, n), base)
}

// ReadWords fills dst with the len(dst) words starting at base (untimed)
// and returns it: SnapshotWords into a caller-owned buffer.
func (h *HBM) ReadWords(dst []uint32, base uint32) []uint32 {
	for off := 0; off < len(dst); {
		off += copy(dst[off:], h.readSpan(base+uint32(off)))
	}
	return dst
}

// locate maps a burst-aligned word address to (channel, bank, row).
func (h *HBM) locate(addr uint32) (ch, bank, row int) {
	burstIdx := addr >> h.burstShift
	ch = int(burstIdx & h.chanMask)
	local := burstIdx >> uint(bits.TrailingZeros32(uint32(h.cfg.Channels)))
	burstsPerRow := uint32(h.cfg.RowWords / h.cfg.BurstWords)
	row = int(local / burstsPerRow)
	bank = row % h.cfg.BanksPerChannel
	return ch, bank, row
}

// Submit enqueues a request using the clock of the most recent Tick for
// write timestamps. Ticking components must prefer SubmitAt: the runner
// skips the HBM's Tick while it is quiescent, leaving the last-tick clock
// behind the caller's cycle. Submit remains for untimed
// setup and tests that tick the model themselves.
func (h *HBM) Submit(req Request) bool {
	return h.SubmitAt(h.now, req)
}

// SubmitAt enqueues a request at cycle now, splitting it into bursts. It
// returns false (and enqueues nothing) when any needed channel queue lacks
// space — callers stall and retry, which is how DRAM backpressure
// propagates into the fabric.
func (h *HBM) SubmitAt(now int64, req Request) bool {
	if req.Words <= 0 {
		panic("dram: request with no words")
	}
	if req.Write && req.Data != nil && len(req.Data) != req.Words {
		panic("dram: write data length mismatch")
	}
	first := req.Addr >> h.burstShift
	last := (req.Addr + uint32(req.Words) - 1) >> h.burstShift
	n := int(last - first + 1)

	// Reserve queue space across all involved channels first. Writes are
	// absorbed by the combining buffer but their evictions land in the
	// same queues, so both directions respect the depth. The per-channel
	// need tally lives in a reused scratch slice, not a per-call
	// allocation.
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
		// Posted write: data lands in the controller's write-combining
		// buffer and the requester is acknowledged immediately. Bursts
		// retire to the channel (costing bandwidth) on eviction or
		// age-out — which is what makes the dense partition format
		// cheap (paper fig. 7b): consecutive slots of a block merge
		// into full bursts before ever touching DRAM.
		h.LoadWords(req.Addr, req.Data)
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
	p := h.pending()
	p.req, p.remaining, p.data = req, n, req.Data
	if cap(p.data) >= req.Words {
		p.data = p.data[:req.Words]
	} else {
		p.data = make([]uint32, req.Words)
	}
	for b := first; b <= last; b++ {
		addr := b << h.burstShift
		ch, bank, row := h.locate(addr)
		h.chans[ch].queue.Push(burst{req: p, addr: addr, bank: bank, row: row})
	}
	return true
}

// pending returns a read record from the free list, or a new one.
func (h *HBM) pending() *pendingReq {
	if n := len(h.freeReqs); n > 0 {
		p := h.freeReqs[n-1]
		h.freeReqs = h.freeReqs[:n-1]
		return p
	}
	return &pendingReq{}
}

// postWrite inserts a burst into a channel's write buffer at cycle now,
// coalescing hits and evicting the oldest entry to the channel queue when
// full.
func (h *HBM) postWrite(c *channel, addr uint32, now int64) {
	if i := c.wbFind(addr); i >= 0 {
		h.CoalescedWrites++
		c.wbRemove(i)
	} else if len(c.writeBuf) >= wbCap {
		h.evictWrite(c)
	}
	c.wbInsert(wbEntry{at: now, addr: addr})
}

// evictWrite moves the oldest write burst from the buffer into the channel
// queue.
func (h *HBM) evictWrite(c *channel) {
	addr := c.writeBuf[0].addr
	c.wbRemove(0)
	_, bank, row := h.locate(addr)
	c.queue.Push(burst{req: nil, addr: addr, bank: bank, row: row})
}

// completion is an issued burst due at cycle at; seq is its issue order.
type completion struct {
	at  int64
	seq uint64
	b   burst
}

// Tick advances every channel one cycle: flush aged write-buffer entries,
// issue at most one burst per free channel, retire elapsed bursts.
func (h *HBM) Tick(cycle int64) {
	h.now = cycle
	for _, ch := range h.chans {
		// Age-out flush: one entry per cycle at most. The head is the
		// oldest entry; if it has not aged, nothing has.
		if ch.queue.Len() < h.cfg.QueueDepth && len(ch.writeBuf) > 0 && cycle-ch.writeBuf[0].at > wbFlushAge {
			h.evictWrite(ch)
		}
		if ch.queue.Len() == 0 || ch.busy > cycle {
			continue
		}
		b := ch.queue.Front()
		fifo, at := &h.hits, cycle+int64(h.cfg.RowHitLatency)
		if ch.openRow[b.bank] != b.row {
			fifo, at = &h.misses, at+int64(h.cfg.RowMissPenalty)
			if ch.firstRow != nil && ch.openRow[b.bank] < 0 {
				ch.firstRow[b.bank] = b.row
			}
			ch.openRow[b.bank] = b.row
			h.RowMisses++
		} else {
			h.RowHits++
		}
		ch.busy = cycle + int64(h.cfg.BurstCycles)
		*fifo.PushRefDirty() = completion{at: at, seq: h.seq, b: *b}
		h.seq++
		ch.queue.Drop()
	}
	h.retire(cycle)
}

// retire completes the bursts due by cycle in issue order and fires
// request callbacks. Each FIFO's matured entries are a prefix, so merging
// the fronts by seq costs O(retired), not O(in flight).
func (h *HBM) retire(cycle int64) {
	for {
		hit := h.hits.Len() > 0 && h.hits.Front().at <= cycle
		miss := h.misses.Len() > 0 && h.misses.Front().at <= cycle
		fifo := &h.hits
		switch {
		case hit && miss:
			if h.misses.Front().seq < h.hits.Front().seq {
				fifo = &h.misses
			}
		case miss:
			fifo = &h.misses
		case !hit:
			return
		}
		b := fifo.Front().b
		fifo.Drop()
		h.finishBurst(b)
	}
}

// nextCompletion returns the earliest in-flight completion cycle, or
// math.MaxInt64 when nothing is in flight.
func (h *HBM) nextCompletion() int64 {
	next := int64(math.MaxInt64)
	if h.hits.Len() > 0 {
		next = h.hits.Front().at
	}
	if h.misses.Len() > 0 && h.misses.Front().at < next {
		next = h.misses.Front().at
	}
	return next
}

func (h *HBM) finishBurst(b burst) {
	if b.req == nil {
		// A write-buffer eviction: pure timing traffic.
		h.WriteBursts++
		return
	}
	p := b.req
	req := &p.req
	if req.Write {
		// Data was posted to the write buffer at submit time; this is
		// the timing-side retirement only.
		h.WriteBursts++
	} else {
		// A burst is burst-aligned, so it never straddles a page.
		lo := b.addr
		if req.Addr > lo {
			lo = req.Addr
		}
		hi := b.addr + uint32(h.cfg.BurstWords)
		if end := req.Addr + uint32(req.Words); end < hi {
			hi = end
		}
		copy(p.data[lo-req.Addr:hi-req.Addr], h.readSpan(lo))
		h.ReadBursts++
	}
	p.remaining--
	if p.remaining > 0 {
		return
	}
	if req.Done != nil {
		req.Done(p.data)
	}
	// No burst refers to p any more; drop its references so the free list
	// pins neither the callback nor the data.
	*p = pendingReq{}
	h.freeReqs = append(h.freeReqs, p)
}

// ResetClock rebases the model's absolute-cycle state to zero so a new
// simulation (sharing this HBM across kernel phases) can start its clock
// from zero. Queues and in-flight requests must be drained. Row-buffer
// state persists, since locality across phases is real; a phase simulated
// on a Fork starts with every row closed instead, and Merge accepts it
// only where that made no difference.
func (h *HBM) ResetClock() {
	if !h.Drained() {
		panic("dram: ResetClock with work in flight")
	}
	for _, ch := range h.chans {
		ch.busy = 0
		for i := range ch.writeBuf {
			ch.writeBuf[i].at = 0
		}
		slices.SortFunc(ch.writeBuf, func(a, b wbEntry) int { return cmp.Compare(a.addr, b.addr) })
	}
	h.now = 0
}

// WorstCaseInternalLatency bounds how many cycles the HBM can hold work
// without any fabric-visible completion: a full channel queue draining at
// one burst per BurstCycles, the slowest single access (row miss), a full
// write buffer's evictions, and the write-buffer age-out horizon. The sim
// runner sums this into its deadlock grace window — the reason a deep
// queue with a large RowMissPenalty can no longer be misreported as
// deadlock by a hard-coded constant.
func (h *HBM) WorstCaseInternalLatency() int64 {
	perBurst := int64(h.cfg.RowHitLatency + h.cfg.RowMissPenalty + h.cfg.BurstCycles)
	queueDrain := int64(h.cfg.QueueDepth+wbCap) * int64(h.cfg.BurstCycles)
	return queueDrain + perBurst + wbFlushAge
}

// Idle reports whether the model is completely empty: no queued bursts,
// nothing in flight, and no resident posted writes. It is conservative —
// a resident write makes the model non-idle even though no tick will do
// anything until its age-out — so it suits callers without a clock.
// Clocked callers should prefer QuiescentAt.
func (h *HBM) Idle() bool {
	if h.hits.Len() > 0 || h.misses.Len() > 0 {
		return false
	}
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 || len(ch.writeBuf) > 0 {
			return false
		}
	}
	return true
}

// QuiescentAt reports whether a Tick at cycle would be a no-op: nothing
// queued, no in-flight burst due, and no resident posted write old enough
// for its age-out flush to fire. Unlike Idle it is a pure function of
// (state, cycle) — bursts still in flight and resident-but-young writes do
// not count as work — so the stretch until the next completion or age-out
// can be skipped entirely.
func (h *HBM) QuiescentAt(cycle int64) bool {
	if h.nextCompletion() <= cycle {
		return false
	}
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 {
			return false
		}
		if len(ch.writeBuf) > 0 && cycle-ch.writeBuf[0].at > wbFlushAge {
			return false
		}
	}
	return true
}

// BytesMoved returns total bytes transferred so far.
func (h *HBM) BytesMoved() int64 {
	return (h.ReadBursts + h.WriteBursts) * int64(h.cfg.BurstWords) * 4
}

// Drained reports whether no request work remains queued or in flight.
// Resident write-buffer entries are posted (acknowledged) data whose
// flush-out is bookkeeping traffic; they do not block draining.
func (h *HBM) Drained() bool {
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 {
			return false
		}
	}
	return h.hits.Len() == 0 && h.misses.Len() == 0
}

// FlushWrites forces all resident write-buffer entries out (called between
// phases so traffic accounting attributes bytes to the phase that wrote
// them).
func (h *HBM) FlushWrites() {
	for _, ch := range h.chans {
		h.WriteBursts += int64(len(ch.writeBuf))
		ch.writeBuf = ch.writeBuf[:0]
	}
}

// Fork returns an HBM with h's configuration, every row closed, its clock
// at zero, and its own empty pages and counters. It simulates the phase
// that follows h's current one while h is still running that phase. The
// fork records the row each bank opens first and whether it reads a page
// it did not write, which Merge needs to decide whether the phase would
// have gone the same way on h. Fork reads only h's configuration, so
// another goroutine may be using h meanwhile; like h, the fork serves one
// goroutine at a time.
func (h *HBM) Fork() *HBM {
	f := New(h.cfg)
	f.forkOf = h
	for _, ch := range f.chans {
		ch.firstRow = slices.Clone(ch.openRow)
	}
	return f
}

// Merge folds the phase simulated on fork f into h, after h's own phase
// has finished (both drained, with no resident posted writes, as a
// kernel's runGraph leaves them). It returns true when f's phase is
// exactly what the same phase would have simulated had it started on h
// with h's clock reset: same bursts at the same cycles, same hits and
// misses, same data. That holds unless
//
//   - a bank's first row in f is h's open row for that bank (on h the
//     first burst would have hit, not missed);
//   - f read a page it did not write (on h it would have seen h's data);
//   - h and f both wrote the same page (one copy would lose the other's
//     words).
//
// In those cases Merge returns false and changes nothing; the caller
// drops f and replays its phase on h. Otherwise h adopts f's pages, the
// open rows of the banks f touched and f's clock, and adds f's counters.
// f must not be used afterwards.
func (h *HBM) Merge(f *HBM) bool {
	if f.forkOf != h {
		panic("dram: Merge of an HBM that is not a fork of this one")
	}
	if !h.Idle() || !f.Idle() {
		panic("dram: Merge with work in flight or resident posted writes")
	}
	if f.readForeign {
		return false
	}
	for c, fc := range f.chans {
		for b, row := range fc.firstRow {
			if row >= 0 && h.chans[c].openRow[b] == row {
				return false
			}
		}
	}
	ids := make([]uint32, 0, len(f.pages))
	for id := range f.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if h.pages[id] != nil {
			return false
		}
	}

	for _, id := range ids {
		h.pages[id] = f.pages[id]
	}
	for c, fc := range f.chans {
		hc := h.chans[c]
		for b, row := range fc.openRow {
			if row < 0 {
				continue
			}
			if hc.firstRow != nil && hc.openRow[b] < 0 {
				hc.firstRow[b] = fc.firstRow[b] // h is itself a fork
			}
			hc.openRow[b] = row
		}
		hc.busy = fc.busy
	}
	h.now = f.now
	h.ReadBursts += f.ReadBursts
	h.WriteBursts += f.WriteBursts
	h.RowHits += f.RowHits
	h.RowMisses += f.RowMisses
	h.Stalls += f.Stalls
	h.CoalescedWrites += f.CoalescedWrites
	return true
}
