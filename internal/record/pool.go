package record

// VecPool is a free list of Vector buffers for paths that materialize
// vectors outside link rings (staging scratch, re-vectorization buffers).
// Get hands out a cleared vector; Put recycles it once the consumer has
// copied the lanes out — the explicit-recycle discipline that keeps the
// steady-state tick path allocation-free (a sink that recycles what it
// consumes never grows the heap).
//
// The pool is deliberately not synchronized: each component owns its own
// pool, and the kernel ticks one component at a time.
type VecPool struct {
	free []*Vector
}

// Get returns a vector with an empty mask. Steady state (every Get matched
// by a Put) performs no allocation.
func (p *VecPool) Get() *Vector {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		v.Reset()
		return v
	}
	return &Vector{}
}

// Put returns a vector to the pool. The caller must not retain v.
func (p *VecPool) Put(v *Vector) {
	if v == nil {
		return
	}
	p.free = append(p.free, v)
}
