package sim

import (
	"math"
	"math/bits"
	"sync"
)

// Event-driven wake scheduling.
//
// The polling kernels ask every component "Idle(cycle)?" every cycle; on
// sparsely active fabrics (most tiles stalled on credits or DRAM most
// cycles, paper §IV) that sweep dominates wall-clock time. The wake
// scheduler inverts it: a component sleeps until an *event* could have
// changed its answer, so a cycle costs O(active components). Every cycle
// is still stepped: a cycle with nothing awake costs only its link commits.
//
// Sleeping is sound only if every way an Idle answer can flip maps to a
// wake. With the kernel's timing discipline there are exactly three:
//
//  1. Link activity. Idle may observe attached links only through the
//     committed-state API (Empty/Peek/CanPush/Drained), and committed link
//     state changes only at the end-of-cycle commit (plus the component's
//     own pushes/pops, which it performs while awake). Commit therefore
//     reports a wake signal whenever anything observable changed — push,
//     pop, arrival, credit return — and the scheduler wakes the link's
//     producers, consumers, and declared sharers for the next cycle.
//  2. A shared-state partner's tick. Components declaring a common
//     StateSharer key interleave through heap state the kernel cannot see
//     (an HBM completion callback filling a DRAM node's buffer, a LoopCtl
//     counter). Whenever such a component ticks, its partners are woken.
//     Crucially the poll kernel evaluates Idle in registration order,
//     interleaved with ticks — a later component already observes an
//     earlier partner's same-cycle mutation — so a tick wakes partners at
//     higher indices for the *same* cycle and partners at lower-or-equal
//     indices for the next one. The drain loop processes indices
//     ascending and accepts insertions ahead of the cursor, reproducing
//     the poll kernel's visibility exactly.
//  3. The passage of time. Internal pipelines mature without any external
//     event (a Map's pipeline register, the HBM write buffer's age-out).
//     Components expose these via WakeHinter; the hint is registered in a
//     bucketed timer wheel when the component goes to sleep.
//
// Components implementing Idler but not WakeHinter keep the old behavior —
// they sit in a poll set and are examined every cycle (the compatibility
// shim). Components without Idler tick every cycle, as always.
//
// Determinism: the wake set is an index bitmap drained in ascending order,
// timers expire into the same bitmap, and link/partner tables are built by
// deterministic traversals — no map iteration anywhere on the cycle path,
// so runs are bit-reproducible.

// WakeHinter is optionally implemented by components (alongside Idler) that
// can sleep between events. WakeHint(cycle) returns the earliest future
// cycle at which the component could become non-idle *without* any activity
// on its attached links and without any tick of a shared-state partner —
// i.e. the maturity time of purely internal state. Components whose
// idleness is entirely link- or partner-driven return WakeNever. The answer
// must be a deterministic function of simulation state, like Idle's.
//
// Implementing WakeHinter is the wake registration the scheduler needs to
// let a component sleep; without it, an Idler component is polled every
// cycle exactly as the pre-event kernels did.
type WakeHinter interface {
	WakeHint(cycle int64) int64
}

// WakeNever is the WakeHint answer of a component with no internal timers:
// only link activity or a shared-state partner's tick can end its sleep.
const WakeNever = int64(math.MaxInt64)

// CallbackHost marks components whose Tick executes completion callbacks
// registered by *other* components — a memory model firing Done closures is
// the canonical case. A callback runs a fragment of its owner's logic, so
// its mutations can reach any state the owner declares shared — state the
// host itself never declared. The scheduler therefore widens a host's
// tick-wake set by one hop: its partners' partners are woken too. One hop
// suffices because a callback owner must be a direct partner of its host
// (it shares the resource that fires the callback) and the sharedstate
// analyzer confines a component's mutations to its declared keys.
type CallbackHost interface {
	HostsCallbacks()
}

// bitset is a fixed-size index set drained in ascending order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) clearAll() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) orInto(dst bitset) {
	for i := range b {
		dst[i] |= b[i]
	}
}

// timerEnt is one scheduled wake: component index and due cycle.
type timerEnt struct {
	comp int32
	at   int64
}

// wheelSlots is the timer wheel horizon. Hints are short in practice
// (pipeline depths, write-buffer ages); farther wakes overflow into a side
// list that is folded back in as the wheel advances.
const wheelSlots = 1024

// timerWheel is a bucketed timer queue: slot cycle%wheelSlots holds the
// wakes due in the wheel's current lap. Entries a full lap or more out wait
// in far. Expiry fills a bitset, so the order entries sit in a bucket is
// unobservable.
type timerWheel struct {
	slots  [][]timerEnt
	far    []timerEnt
	farMin int64
	count  int
}

// freeWheels recycles timer wheels across runs, for the same reason and in
// the same way as freeRings: a kernel builds many short-lived graphs, and
// each run's bucket table (wheelSlots slice headers) would otherwise be
// fresh garbage. A recycled wheel is empty, so reuse is unobservable.
var freeWheels struct {
	sync.Mutex
	list []*timerWheel
}

func newTimerWheel() *timerWheel {
	freeWheels.Lock()
	defer freeWheels.Unlock()
	if n := len(freeWheels.list); n > 0 {
		w := freeWheels.list[n-1]
		freeWheels.list = freeWheels.list[:n-1]
		return w
	}
	return &timerWheel{slots: make([][]timerEnt, wheelSlots), farMin: WakeNever}
}

// release empties the wheel, keeping its bucket arrays, and returns it for
// reuse. The caller must not use w afterwards.
func (w *timerWheel) release() {
	if w.count > 0 {
		for i := range w.slots {
			w.slots[i] = w.slots[i][:0]
		}
		w.far = w.far[:0]
	}
	w.farMin, w.count = WakeNever, 0
	freeWheels.Lock()
	freeWheels.list = append(freeWheels.list, w)
	freeWheels.Unlock()
}

// schedule registers a wake for comp at cycle `at` (callers guarantee
// at > now). Duplicate or stale registrations are harmless: expiry only
// re-examines the component's Idle.
func (w *timerWheel) schedule(now int64, comp int32, at int64) {
	if at-now < wheelSlots {
		idx := at % wheelSlots
		// Buckets are filtered in place at expiry, so each grows to its
		// steady-state population once and then reuses its array.
		w.slots[idx] = append(w.slots[idx], timerEnt{comp: comp, at: at}) // lint:hotalloc-ok bucket warmup growth, array reused after expiry
	} else {
		w.far = append(w.far, timerEnt{comp: comp, at: at}) // lint:hotalloc-ok far-list warmup growth, array reused by refill's in-place filter
		if at < w.farMin {
			w.farMin = at
		}
	}
	w.count++
}

// expireInto wakes everything due at exactly `cycle` into dst. The runner
// visits every cycle in order, so entries left in the bucket are due a
// later lap.
func (w *timerWheel) expireInto(cycle int64, dst bitset) {
	if w.count == 0 {
		return
	}
	if w.farMin-cycle < wheelSlots {
		w.refill(cycle)
	}
	bucket := w.slots[cycle%wheelSlots]
	if len(bucket) == 0 {
		return
	}
	kept := bucket[:0]
	for _, e := range bucket {
		if e.at <= cycle {
			dst.set(int(e.comp))
			w.count--
		} else {
			kept = append(kept, e) // lint:hotalloc-ok in-place filter into bucket[:0], cannot grow
		}
	}
	w.slots[cycle%wheelSlots] = kept
}

// refill folds far entries now within the horizon into their buckets.
func (w *timerWheel) refill(cycle int64) {
	kept := w.far[:0]
	w.farMin = WakeNever
	for _, e := range w.far {
		if e.at-cycle < wheelSlots {
			idx := e.at % wheelSlots
			// Each far entry folds into a bucket exactly once.
			w.slots[idx] = append(w.slots[idx], e) // lint:hotalloc-ok bucket warmup growth, array reused after expiry
		} else {
			kept = append(kept, e) // lint:hotalloc-ok in-place filter into far[:0], cannot grow
			if e.at < w.farMin {
				w.farMin = e.at
			}
		}
	}
	w.far = kept
}

// scheduler is the per-run wake state. It is rebuilt by each RunWith (and
// by VerifyWakeContract), so components and links registered between runs
// are picked up. While it runs, every registered link reports its
// mutations to it (Link.sched); detach unwires them.
type scheduler struct {
	sys     *System
	n       int
	hinters []WakeHinter // parallel to comps; nil where not implemented

	awake bitset // components to examine this cycle
	next  bitset // accumulated wakes for the following cycle
	poll  bitset // compatibility shim: always examined (no Idler or no WakeHinter)

	// partners[i] lists the components sharing a non-Link SharedState key
	// with component i (excluding i), ascending. linkWake[l.id] lists the
	// components to wake when link l reports observable change: producers,
	// consumers, and components declaring the link as shared state.
	partners [][]int32
	linkWake [][]int32

	// wakeAhead/wakeBehind are partners[i] precompiled to bitset masks,
	// split by index: partners above i wake the same cycle (OR into awake),
	// partners at or below wake the next (OR into next). Wide groups — every
	// DRAM node sharing one HBM is partnered with every other — made the
	// per-partner set loop a measurable cost; a mask OR is a handful of word
	// ops regardless of group width. nil where a side is empty.
	wakeAhead  []bitset
	wakeBehind []bitset

	// Dirty-link commit tracking. Every link mutation (stage/Drop) reports
	// the link via markLink, and the commit phase visits exactly the links
	// with pending work — the marked ones plus flyIDs, the links carrying
	// in-flight flits as of the last commit — instead of sweeping the whole
	// census.
	dirtySet   bitset  // over link ids: marked since the last commit
	dirtyIDs   []int32 // marked links, appended by markLink
	flyIDs     []int32 // links with in-flight flits at last commit
	flyScratch []int32 // double buffer for rebuilding flyIDs

	wheel *timerWheel

	// O(1) termination bookkeeping, maintained incrementally: Done can flip
	// only in a Tick (the Idle contract), link drain state only at a commit.
	doneBits  bitset
	notDone   int // components not Done, updated after each tick
	undrained int // links not Drained, updated only by commitOne

	// noSkip mirrors RunOptions.NoIdleSkip: never consult Idle, tick every
	// awake component. Ticking re-arms, so after the all-set first cycle
	// every component stays awake — the pre-quiescence behavior.
	noSkip bool
}

func newScheduler(s *System) *scheduler {
	n := len(s.comps)
	sc := &scheduler{
		sys:      s,
		n:        n,
		hinters:  make([]WakeHinter, n),
		awake:    newBitset(n),
		next:     newBitset(n),
		poll:     newBitset(n),
		wheel:    newTimerWheel(),
		doneBits: newBitset(n),
	}
	for i, c := range s.comps {
		h, _ := c.(WakeHinter)
		sc.hinters[i] = h
		if s.idlers[i] == nil || h == nil {
			sc.poll.set(i)
		}
		// Everyone is examined on the first cycle; sleeps begin from the
		// first idle answer.
		sc.next.set(i)
		if c.Done() {
			sc.doneBits.set(i)
		} else {
			sc.notDone++
		}
	}
	sc.buildPartnerTables() // assigns link ids
	sc.dirtySet = newBitset(len(s.links))
	sc.dirtyIDs = make([]int32, 0, len(s.links))
	sc.flyIDs = make([]int32, 0, len(s.links))
	sc.flyScratch = make([]int32, 0, len(s.links))
	for _, l := range s.links {
		l.sched = sc
		l.wasDrained = l.Drained()
		if !l.wasDrained {
			sc.undrained++
		}
		if l.nFly > 0 {
			sc.flyIDs = append(sc.flyIDs, int32(l.id))
		}
	}
	return sc
}

// buildPartnerTables derives the wake topology from the components'
// declarations: port lists and SharedState keys. All traversals run in
// registration order; the only maps are keyed lookups whose iteration
// order is never consulted.
func (sc *scheduler) buildPartnerTables() {
	s := sc.sys
	sc.linkWake = make([][]int32, len(s.links))
	addLink := func(l *Link, i int) {
		if l == nil || l.id < 0 || l.id >= len(sc.linkWake) {
			return
		}
		sc.linkWake[l.id] = append(sc.linkWake[l.id], int32(i))
	}
	for id, l := range s.links {
		l.id = id
	}
	for i, c := range s.comps {
		if op, ok := c.(OutputPorts); ok {
			for _, l := range op.OutputLinks() {
				addLink(l, i)
			}
		}
		if ip, ok := c.(InputPorts); ok {
			for _, l := range ip.InputLinks() {
				addLink(l, i)
			}
		}
	}
	// Non-Link shared keys group components; *Link keys subscribe the
	// claimant to that link's wake list (it inspects the link's state
	// beyond the push/pop contract, e.g. a loop-entry merge reading
	// Drained on its recirculating input).
	keyGroup := make(map[any]int)
	var groups [][]int32
	for i, c := range s.comps {
		ss, ok := c.(StateSharer)
		if !ok {
			continue
		}
		for _, key := range ss.SharedState() {
			if key == nil {
				continue
			}
			if l, isLink := key.(*Link); isLink {
				addLink(l, i)
				continue
			}
			g, seen := keyGroup[key]
			if !seen {
				g = len(groups)
				groups = append(groups, nil)
				keyGroup[key] = g
			}
			groups[g] = append(groups[g], int32(i))
		}
	}
	sc.partners = make([][]int32, sc.n)
	for _, g := range groups {
		for _, i := range g {
			for _, j := range g {
				if i != j {
					sc.partners[i] = append(sc.partners[i], j)
				}
			}
		}
	}
	for i := range sc.partners {
		sc.partners[i] = dedupSorted(sc.partners[i])
	}
	// A callback host's tick can run partner-owned closures whose mutations
	// reach the owners' shared keys: widen its wake set to partners'
	// partners (see CallbackHost).
	for i, c := range s.comps {
		if _, host := c.(CallbackHost); !host {
			continue
		}
		ext := sc.partners[i]
		for _, p := range sc.partners[i] {
			for _, q := range sc.partners[p] {
				if int(q) != i {
					ext = append(ext, q)
				}
			}
		}
		sc.partners[i] = dedupSorted(ext)
	}
	for id := range sc.linkWake {
		sc.linkWake[id] = dedupSorted(sc.linkWake[id])
	}
	// Compile the partner lists to masks (see the field comment). Only
	// components with partners pay for storage.
	sc.wakeAhead = make([]bitset, sc.n)
	sc.wakeBehind = make([]bitset, sc.n)
	for i, ps := range sc.partners {
		for _, p := range ps {
			if int(p) > i {
				if sc.wakeAhead[i] == nil {
					sc.wakeAhead[i] = newBitset(sc.n)
				}
				sc.wakeAhead[i].set(int(p))
			} else {
				if sc.wakeBehind[i] == nil {
					sc.wakeBehind[i] = newBitset(sc.n)
				}
				sc.wakeBehind[i].set(int(p))
			}
		}
	}
}

// detach unwires the links from the scheduler once its run is over, so a
// finished run's scheduler is neither retained nor marked by later link use,
// and hands its timer wheel back for reuse.
func (sc *scheduler) detach() {
	for _, l := range sc.sys.links {
		l.sched = nil
	}
	sc.wheel.release()
	sc.wheel = nil
}

// markLink records link activity for the dirty-list commit. Called from the
// link mutators (stage/Drop) via the link's sched pointer.
func (sc *scheduler) markLink(l *Link) {
	id := l.id
	if id < 0 || sc.dirtySet.get(id) {
		return
	}
	sc.dirtySet.set(id)
	sc.dirtyIDs = append(sc.dirtyIDs, int32(id)) // lint:hotalloc-ok bounded by the link census; backing array preallocated and reused
}

// dedupSorted sorts ascending and removes duplicates in place.
func dedupSorted(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	// Insertion sort: lists are tiny (a link has a handful of endpoints).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// allDone is the O(1) replacement for the full Done/Drained sweep.
func (sc *scheduler) allDone() bool { return sc.notDone == 0 && sc.undrained == 0 }

// beginCycle rotates the wake sets: this cycle's set is last cycle's
// accumulated wakes, the poll shim, and expiring timers. hot:path — runs
// once per simulated cycle.
func (sc *scheduler) beginCycle(cycle int64) {
	sc.awake, sc.next = sc.next, sc.awake
	sc.next.clearAll()
	sc.poll.orInto(sc.awake)
	sc.wheel.expireInto(cycle, sc.awake)
}

// markTicked updates the Done cache after component i ticked.
func (sc *scheduler) markTicked(i int) {
	d := sc.sys.comps[i].Done()
	if d != sc.doneBits.get(i) {
		if d {
			sc.doneBits.set(i)
			sc.notDone--
		} else {
			sc.doneBits[i>>6] &^= 1 << uint(i&63)
			sc.notDone++
		}
	}
}

// wakePartners propagates a tick of component i to its shared-state
// partners: same cycle ahead of the cursor, next cycle at or behind it.
// The precompiled masks make this O(words), not O(partners) — the HBM's
// group partners every DRAM node with every other.
func (sc *scheduler) wakePartners(i int) {
	if m := sc.wakeAhead[i]; m != nil {
		m.orInto(sc.awake)
	}
	if m := sc.wakeBehind[i]; m != nil {
		m.orInto(sc.next)
	}
}

// sleep records component i going idle: schedule its self-timer, if any.
// (Poll-set members never reach here.)
func (sc *scheduler) sleep(i int, cycle int64) {
	hint := sc.hinters[i].WakeHint(cycle)
	if hint == WakeNever {
		return
	}
	if hint <= cycle {
		// A hint at or before the current cycle means "re-examine next
		// cycle"; the contract asks for future cycles but clamping is
		// safer than dropping the wake.
		sc.next.set(i)
		return
	}
	sc.wheel.schedule(cycle, int32(i), hint)
}

// step advances one cycle: drain the wake set in ascending index order
// (accepting same-cycle insertions ahead of the cursor), then commit every
// link with pending work. It reports link-traffic progress, exactly like
// the polling kernel's step. hot:path — this is the kernel's per-cycle
// loop.
func (sc *scheduler) step(cycle int64) bool {
	s := sc.sys
	aw := sc.awake
	for wi := range aw {
		for {
			w := aw[wi]
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			aw[wi] &^= 1 << uint(b)
			i := wi<<6 | b
			idler := s.idlers[i]
			if !sc.noSkip && idler != nil && idler.Idle(cycle) {
				if !sc.poll.get(i) {
					sc.sleep(i, cycle)
				}
				continue
			}
			s.comps[i].Tick(cycle)
			sc.markTicked(i)
			sc.wakePartners(i)
			sc.next.set(i) // may have more work; it will re-idle otherwise
		}
	}
	return sc.commitDirty(cycle)
}

// commitOne ends one link's cycle and applies the wake consequences and
// the incremental termination bookkeeping. It also rebuilds
// the in-flight list for the next cycle.
func (sc *scheduler) commitOne(id int, l *Link, cycle int64) (progress bool) {
	progress, wake := l.commit(cycle)
	if wake {
		for _, ci := range sc.linkWake[id] {
			sc.next.set(int(ci))
		}
	}
	if d := l.Drained(); d != l.wasDrained {
		l.wasDrained = d
		if d {
			sc.undrained--
		} else {
			sc.undrained++
		}
	}
	if l.nFly > 0 {
		sc.flyScratch = append(sc.flyScratch, int32(id)) // lint:hotalloc-ok bounded by the link census; backing array preallocated and reused
	}
	return progress
}

// commitDirty is the end-of-cycle commit: visit exactly the links with
// pending work — those marked by a push or pop this cycle (dirtyIDs) plus
// those carrying in-flight flits from earlier cycles (flyIDs). Commit order
// across links is unobservable: each link's commit touches only that link,
// and the wake/census updates are idempotent or commutative. hot:path —
// runs once per simulated cycle.
func (sc *scheduler) commitDirty(cycle int64) bool {
	moved := false
	sc.flyScratch = sc.flyScratch[:0]
	links := sc.sys.links
	for _, id := range sc.dirtyIDs {
		if sc.commitOne(int(id), links[id], cycle) {
			moved = true
		}
	}
	for _, id := range sc.flyIDs {
		if sc.dirtySet.get(int(id)) {
			continue // committed above
		}
		if sc.commitOne(int(id), links[id], cycle) {
			moved = true
		}
	}
	for _, id := range sc.dirtyIDs {
		sc.dirtySet[id>>6] &^= 1 << uint(id&63)
	}
	sc.dirtyIDs = sc.dirtyIDs[:0]
	sc.flyIDs, sc.flyScratch = sc.flyScratch, sc.flyIDs
	return moved
}
