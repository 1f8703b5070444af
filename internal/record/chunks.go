package record

import "iter"

// Chunk sizes of a Chunks store, in words: the first chunk holds four
// vectors of three-field records, each later one twice its predecessor, up
// to chunkMaxWords. The cap bounds the unused tail of a large store at one
// chunk (32 KiB), which also keeps every chunk a small heap object.
const (
	chunkMinWords = 4 * NumLanes * 4
	chunkMaxWords = 1 << 13
)

// Chunks is an append-only record store. It packs each record as its field
// count followed by its N live fields, since fields beyond N are zero, so a
// three-field record takes 16 bytes instead of 52. It grows by adding
// chunks rather than by reallocating one slice, so a record is written once
// and never moved, and a store holds at most one chunk of unused space. It
// backs stream sinks, which cannot know their record count in advance. The
// zero value is an empty store ready for use.
type Chunks struct {
	full [][]uint32 // filled chunks, oldest first
	cur  []uint32   // the chunk being filled
	n    int
}

// AppendVec stores v's valid records in lane order.
func (c *Chunks) AppendVec(v *Vector) {
	for i := 0; i < NumLanes; i++ {
		if !v.Valid(i) {
			continue
		}
		r := &v.Lane[i]
		if cap(c.cur)-len(c.cur) < int(r.N)+1 {
			c.grow()
		}
		c.cur = append(c.cur, uint32(r.N))
		c.cur = append(c.cur, r.F[:r.N]...)
		c.n++
	}
}

// grow retires the current chunk and starts the next one, which always
// has room for a record of MaxFields fields.
func (c *Chunks) grow() {
	size := chunkMinWords
	if c.cur != nil {
		c.full = append(c.full, c.cur)
		size = min(2*cap(c.cur), chunkMaxWords)
	}
	c.cur = make([]uint32, 0, size)
}

// Len returns the number of stored records.
func (c *Chunks) Len() int { return c.n }

// All yields the stored records in arrival order. The yielded record is
// rebuilt in one scratch value, valid until the next iteration.
func (c *Chunks) All() iter.Seq[*Rec] {
	return func(yield func(*Rec) bool) {
		var r Rec
		for i := 0; i <= len(c.full); i++ {
			ch := c.cur
			if i < len(c.full) {
				ch = c.full[i]
			}
			for off := 0; off < len(ch); {
				n := int(ch[off])
				r = Rec{N: uint8(n)}
				copy(r.F[:n], ch[off+1:off+1+n])
				off += n + 1
				if !yield(&r) {
					return
				}
			}
		}
	}
}

// AppendTo appends the stored records to dst in arrival order and returns
// the extended slice. A dst with room for Len more records is not
// reallocated.
func (c *Chunks) AppendTo(dst []Rec) []Rec {
	for r := range c.All() {
		dst = append(dst, *r)
	}
	return dst
}
