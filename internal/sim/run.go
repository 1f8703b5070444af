package sim

// Idle-skip polling.
//
// Every cycle the runner walks the components in registration order, asks
// each Idler whether a Tick would be a no-op, and ticks the rest; then it
// commits the links with pending work. Idle is asked on every cycle, so a
// component never misses work: whatever changed its answer — link traffic,
// a partner's mutation of shared heap state earlier in the same walk, or
// the passage of time — is seen the next time it is asked. The Idle call
// is the whole saving: ticking every component regardless
// (RunOptions.NoIdleSkip) is the polling reference the equivalence suites
// compare against.
//
// Determinism: the walk, the dirty-link list and the termination census
// are index-ordered or order-insensitive, with no map iteration on the
// cycle path, so runs are bit-reproducible.

// runner is the per-run state of RunWith. It is rebuilt by each run, so
// components and links registered between runs are picked up. While it
// runs, every registered link reports its mutations to it (Link.run);
// detach unwires them.
type runner struct {
	sys *System

	// Dirty-link commit tracking. Every link mutation (stage/Drop) reports
	// the link via markLink, and the commit phase visits exactly the links
	// with pending work — the marked ones plus flyIDs, the links carrying
	// in-flight flits as of the last commit — instead of sweeping the whole
	// census.
	dirty      []bool  // over link ids: marked since the last commit
	dirtyIDs   []int32 // marked links, appended by markLink
	flyIDs     []int32 // links with in-flight flits at last commit
	flyScratch []int32 // double buffer for rebuilding flyIDs

	// O(1) termination bookkeeping, maintained incrementally: Done can flip
	// only in a Tick (the Idle contract), link drain state only at a commit.
	done      []bool // parallel to comps: Done as of the component's last tick
	notDone   int    // components not Done, updated after each tick
	undrained int    // links not Drained, updated only by commitOne

	// noSkip mirrors RunOptions.NoIdleSkip: never consult Idle, tick every
	// component every cycle.
	noSkip bool
}

func newRunner(s *System, noSkip bool) *runner {
	r := &runner{
		sys:        s,
		noSkip:     noSkip,
		done:       make([]bool, len(s.comps)),
		dirty:      make([]bool, len(s.links)),
		dirtyIDs:   make([]int32, 0, len(s.links)),
		flyIDs:     make([]int32, 0, len(s.links)),
		flyScratch: make([]int32, 0, len(s.links)),
	}
	for i, c := range s.comps {
		if r.done[i] = c.Done(); !r.done[i] {
			r.notDone++
		}
	}
	for id, l := range s.links {
		l.id = id
		l.run = r
		l.wasDrained = l.Drained()
		if !l.wasDrained {
			r.undrained++
		}
		if l.nFly > 0 {
			r.flyIDs = append(r.flyIDs, int32(id))
		}
	}
	return r
}

// detach unwires the links from the runner once its run is over, so a
// finished run's runner is neither retained nor marked by later link use.
func (r *runner) detach() {
	for _, l := range r.sys.links {
		l.run = nil
	}
}

// markLink records link activity for the dirty-list commit. Called from the
// link mutators (stage/Drop) via the link's run pointer.
func (r *runner) markLink(l *Link) {
	id := l.id
	if id < 0 || r.dirty[id] {
		return
	}
	r.dirty[id] = true
	r.dirtyIDs = append(r.dirtyIDs, int32(id)) // lint:hotalloc-ok bounded by the link census; backing array preallocated and reused
}

// allDone is the O(1) replacement for the full Done/Drained sweep.
func (r *runner) allDone() bool { return r.notDone == 0 && r.undrained == 0 }

// step advances one cycle: tick every component in registration order
// unless it answers Idle, then commit every link with pending work. It
// reports whether any link carried traffic. hot:path — this is the
// kernel's per-cycle loop.
func (r *runner) step(cycle int64) bool {
	s := r.sys
	for i, c := range s.comps {
		if idler := s.idlers[i]; !r.noSkip && idler != nil && idler.Idle(cycle) {
			continue
		}
		c.Tick(cycle)
		if d := c.Done(); d != r.done[i] {
			r.done[i] = d
			if d {
				r.notDone--
			} else {
				r.notDone++
			}
		}
	}
	return r.commitDirty(cycle)
}

// commitOne ends one link's cycle and applies the incremental termination
// bookkeeping. It also rebuilds the in-flight list for the next cycle.
func (r *runner) commitOne(id int, l *Link, cycle int64) (progress bool) {
	progress = l.commit(cycle)
	if d := l.Drained(); d != l.wasDrained {
		l.wasDrained = d
		if d {
			r.undrained--
		} else {
			r.undrained++
		}
	}
	if l.nFly > 0 {
		r.flyScratch = append(r.flyScratch, int32(id)) // lint:hotalloc-ok bounded by the link census; backing array preallocated and reused
	}
	return progress
}

// commitDirty is the end-of-cycle commit: visit exactly the links with
// pending work — those marked by a push or pop this cycle (dirtyIDs) plus
// those carrying in-flight flits from earlier cycles (flyIDs). Commit order
// across links is unobservable: each link's commit touches only that link,
// and the census updates are commutative. hot:path — runs once per
// simulated cycle.
func (r *runner) commitDirty(cycle int64) bool {
	moved := false
	r.flyScratch = r.flyScratch[:0]
	links := r.sys.links
	for _, id := range r.dirtyIDs {
		if r.commitOne(int(id), links[id], cycle) {
			moved = true
		}
	}
	for _, id := range r.flyIDs {
		if r.dirty[id] {
			continue // committed above
		}
		if r.commitOne(int(id), links[id], cycle) {
			moved = true
		}
	}
	for _, id := range r.dirtyIDs {
		r.dirty[id] = false
	}
	r.dirtyIDs = r.dirtyIDs[:0]
	r.flyIDs, r.flyScratch = r.flyScratch, r.flyIDs
	return moved
}
