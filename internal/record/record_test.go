package record

import (
	"testing"
	"testing/quick"
)

func TestMakeGetSet(t *testing.T) {
	r := Make(1, 2, 3)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for i, want := range []uint32{1, 2, 3} {
		if got := r.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	r2 := r.Set(1, 99)
	if r2.Get(1) != 99 || r.Get(1) != 2 {
		t.Errorf("Set must copy: got r2[1]=%d r[1]=%d", r2.Get(1), r.Get(1))
	}
	r3 := r.Set(5, 7)
	if r3.Len() != 6 || r3.Get(5) != 7 || r3.Get(3) != 0 {
		t.Errorf("Set beyond N should grow: %v", r3)
	}
}

func TestAppendTruncate(t *testing.T) {
	r := Make(1).Append(2).Append(3)
	if r.Len() != 3 || r.Get(2) != 3 {
		t.Fatalf("append chain broken: %v", r)
	}
	tr := r.Truncate(1)
	if tr.Len() != 1 || tr.F[1] != 0 || tr.F[2] != 0 {
		t.Errorf("truncate must zero dropped fields: %v", tr)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"get":       func() { r := Make(1); r.Get(1) },
		"get-neg":   func() { r := Make(1); r.Get(-1) },
		"set-max":   func() { Make(1).Set(MaxFields, 0) },
		"trunc-big": func() { Make(1).Truncate(2) },
		"make-wide": func() { Make(make([]uint32, MaxFields+1)...) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestU64RoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint64) bool {
		r := Make(0, 0, 0).SetU64(1, v)
		return r.U64(1) == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestF32AndI32RoundTrip(t *testing.T) {
	if err := quick.Check(func(f float32, i int32) bool {
		r := Make(0, 0).SetF32(0, f).SetI32(1, i)
		// NaN != NaN, so compare bit patterns.
		want := Make(0).SetF32(0, f)
		return r.Get(0) == want.Get(0) && r.I32(1) == i
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a, b := Make(1, 2), Make(1, 2)
	if !a.Equal(b) {
		t.Error("identical records must be equal")
	}
	if a.Equal(Make(1, 2, 0)) {
		t.Error("different N must not be equal")
	}
	if a.Equal(Make(1, 3)) {
		t.Error("different fields must not be equal")
	}
}

func TestVectorPushCount(t *testing.T) {
	var v Vector
	for i := 0; i < NumLanes; i++ {
		full := v.Push(Make(uint32(i)))
		if full != (i == NumLanes-1) {
			t.Errorf("Push %d: full=%v", i, full)
		}
	}
	if v.Count() != NumLanes || !v.Dense() {
		t.Fatalf("count=%d dense=%v", v.Count(), v.Dense())
	}
	defer func() {
		if recover() == nil {
			t.Error("push to full vector must panic")
		}
	}()
	v.Push(Make(0))
}

// TestVectorPredicatesThroughPointer drives the read-only predicates and
// the in-place push/append ops through a *Vector, the way tiles call them
// on link slots, across the mask shapes the fabric produces.
func TestVectorPredicatesThroughPointer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mask      uint16
		count     int
		dense     bool
		wantLanes []int
	}{
		{"empty", 0, 0, true, nil},
		{"sparse", 1<<3 | 1<<7 | 1<<12, 3, false, []int{3, 7, 12}},
		{"non-dense", 0b1011, 3, false, []int{0, 1, 3}},
		{"15-lane", 0x7fff, 15, true, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
		{"full", 0xffff, 16, true, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := &Vector{Mask: tc.mask}
			for i := range v.Lane {
				v.Lane[i] = Make(uint32(i), uint32(100+i))
			}
			if got := v.Count(); got != tc.count {
				t.Errorf("Count = %d, want %d", got, tc.count)
			}
			if got := v.Dense(); got != tc.dense {
				t.Errorf("Dense = %v, want %v", got, tc.dense)
			}
			for i := 0; i < NumLanes; i++ {
				if got, want := v.Valid(i), tc.mask&(1<<uint(i)) != 0; got != want {
					t.Errorf("Valid(%d) = %v, want %v", i, got, want)
				}
			}

			prefix := Make(999)
			dst := v.AppendRecords([]Rec{prefix})
			if len(dst) != 1+len(tc.wantLanes) || !dst[0].Equal(prefix) {
				t.Fatalf("AppendRecords = %v, want prefix then lanes %v", dst, tc.wantLanes)
			}
			for k, lane := range tc.wantLanes {
				if !dst[1+k].Equal(v.Lane[lane]) {
					t.Errorf("AppendRecords[%d] = %v, want lane %d %v", 1+k, dst[1+k], lane, v.Lane[lane])
				}
			}

			if !tc.dense {
				return // PushRef is defined on dense vectors only
			}
			if tc.count == NumLanes {
				assertPanics(t, "PushRef on a full vector", func() { v.PushRef() })
				assertPanics(t, "Push on a full vector", func() { v.Push(Make(0)) })
				return
			}
			r := v.PushRef()
			if r != &v.Lane[tc.count] {
				t.Fatalf("PushRef returned a pointer outside lane %d", tc.count)
			}
			*r = Make(7)
			if v.Count() != tc.count+1 || !v.Dense() || !v.Valid(tc.count) || v.Lane[tc.count].Get(0) != 7 {
				t.Fatalf("after PushRef: count=%d dense=%v mask=%016b", v.Count(), v.Dense(), v.Mask)
			}
			for v.Count() < NumLanes {
				v.PushRef()
			}
			assertPanics(t, "PushRef after filling", func() { v.PushRef() })
		})
	}
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s must panic", what)
		}
	}()
	fn()
}

func TestVectorCompact(t *testing.T) {
	var v Vector
	v.Lane[3] = Make(3)
	v.Lane[7] = Make(7)
	v.Lane[12] = Make(12)
	v.Mask = 1<<3 | 1<<7 | 1<<12
	c := v.Compact()
	if !c.Dense() || c.Count() != 3 {
		t.Fatalf("compact not dense: %v", c)
	}
	want := []uint32{3, 7, 12}
	for i, r := range c.Records() {
		if r.Get(0) != want[i] {
			t.Errorf("lane %d = %d, want %d (order preserved)", i, r.Get(0), want[i])
		}
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("key", "ptr", "val")
	if s.Len() != 3 {
		t.Fatalf("len=%d", s.Len())
	}
	if i := s.MustField("ptr"); i != 1 {
		t.Errorf("ptr at %d, want 1", i)
	}
	if _, ok := s.Field("nope"); ok {
		t.Error("missing field reported present")
	}
	s2 := s.With("extra")
	if s2.MustField("extra") != 3 || s.Len() != 3 {
		t.Error("With must not mutate the receiver")
	}
	proj, fn := s.Project("val", "key")
	if proj.MustField("val") != 0 {
		t.Error("projection order wrong")
	}
	r := fn(Make(10, 20, 30))
	if r.Get(0) != 30 || r.Get(1) != 10 || r.Len() != 2 {
		t.Errorf("projection record wrong: %v", r)
	}
}

func TestSchemaPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"dup":     func() { NewSchema("a", "a") },
		"empty":   func() { NewSchema("") },
		"missing": func() { NewSchema("a").MustField("b") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
