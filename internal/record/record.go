// Package record implements the data model shared by every layer of the
// Aurochs simulator: fixed-width records made of 32-bit fields, the 16-lane
// vectors that flow between tiles, and the named schemas that give fields
// meaning at graph-construction time.
//
// A record is the paper's "thread record": a small, ephemeral bundle of
// 32-bit words that fully captures one dataflow thread's local state. All
// records in a stream share a schema; pipeline stages mutate records as they
// flow through compute and scratchpad tiles.
package record

import (
	"fmt"
	"math"
	"strings"
)

const (
	// NumLanes is the vector width of a Gorgon/Aurochs compute or
	// scratchpad tile: 16 records processed in SIMD lockstep.
	NumLanes = 16

	// MaxFields bounds the fields in one record. The paper's kernels use
	// 3-6 fields; queries with wide payloads use up to 12. Keeping the
	// array inline (no heap indirection) keeps vectors cache-friendly.
	MaxFields = 12
)

// Rec is a single record: N live 32-bit fields. Fields beyond N are zero.
// The zero value is an empty record.
//
// The read accessors take pointer receivers so that reading a field of a
// record in a link slot does not copy all 52 bytes of it; the
// functional-update methods (Set, Append, ...) take value receivers because
// they return a modified copy.
type Rec struct {
	F [MaxFields]uint32
	N uint8
}

// Make builds a record from the given field values.
func Make(fields ...uint32) Rec {
	if len(fields) > MaxFields {
		panic(fmt.Sprintf("record: %d fields exceeds MaxFields=%d", len(fields), MaxFields))
	}
	var r Rec
	copy(r.F[:], fields)
	r.N = uint8(len(fields))
	return r
}

// Get returns field i. It panics if i is out of range, matching how a
// misconfigured tile would fail at reconfiguration time.
func (r *Rec) Get(i int) uint32 {
	if i < 0 || i >= int(r.N) {
		panic(fmt.Sprintf("record: field %d out of range (N=%d)", i, r.N))
	}
	return r.F[i]
}

// Set returns a copy of r with field i replaced, growing N if needed.
func (r Rec) Set(i int, v uint32) Rec {
	if i < 0 || i >= MaxFields {
		panic(fmt.Sprintf("record: field %d out of range (MaxFields=%d)", i, MaxFields))
	}
	r.F[i] = v
	if int(r.N) <= i {
		r.N = uint8(i + 1)
	}
	return r
}

// Put writes field i in place, growing N if needed. It is the mutating
// form of Set for hot paths where records live in arenas or link rings and
// a 52-byte copy per field write is measurable.
func (r *Rec) Put(i int, v uint32) {
	if i < 0 || i >= MaxFields {
		panic(fmt.Sprintf("record: field %d out of range (MaxFields=%d)", i, MaxFields))
	}
	r.F[i] = v
	if int(r.N) <= i {
		r.N = uint8(i + 1)
	}
}

// Append returns a copy of r with v appended as a new trailing field.
func (r Rec) Append(v uint32) Rec {
	if int(r.N) >= MaxFields {
		panic("record: append exceeds MaxFields")
	}
	r.F[r.N] = v
	r.N++
	return r
}

// Truncate returns a copy of r keeping only the first n fields.
func (r Rec) Truncate(n int) Rec {
	if n < 0 || n > int(r.N) {
		panic(fmt.Sprintf("record: truncate %d out of range (N=%d)", n, r.N))
	}
	for i := n; i < int(r.N); i++ {
		r.F[i] = 0
	}
	r.N = uint8(n)
	return r
}

// Len reports the number of live fields.
func (r *Rec) Len() int { return int(r.N) }

// U64 reads fields i (low word) and i+1 (high word) as one 64-bit value.
// Keys wider than a 32-bit lane are split across adjacent fields and
// compared across pipeline stages, mirroring Gorgon's record layout.
func (r *Rec) U64(i int) uint64 {
	return uint64(r.Get(i)) | uint64(r.Get(i+1))<<32
}

// SetU64 writes v across fields i and i+1.
func (r Rec) SetU64(i int, v uint64) Rec {
	r = r.Set(i, uint32(v))
	return r.Set(i+1, uint32(v>>32))
}

// F32 interprets field i as an IEEE-754 float32.
func (r *Rec) F32(i int) float32 { return math.Float32frombits(r.Get(i)) }

// SetF32 stores a float32 in field i.
func (r Rec) SetF32(i int, v float32) Rec { return r.Set(i, math.Float32bits(v)) }

// I32 interprets field i as a signed 32-bit integer.
func (r *Rec) I32(i int) int32 { return int32(r.Get(i)) }

// SetI32 stores a signed 32-bit integer in field i.
func (r Rec) SetI32(i int, v int32) Rec { return r.Set(i, uint32(v)) }

// Equal reports whether two records have identical live fields.
func (r Rec) Equal(o Rec) bool {
	if r.N != o.N {
		return false
	}
	for i := 0; i < int(r.N); i++ {
		if r.F[i] != o.F[i] {
			return false
		}
	}
	return true
}

// String renders the record for debugging.
func (r Rec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < int(r.N); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", r.F[i])
	}
	b.WriteByte(']')
	return b.String()
}
