// Package detbad is a determinism fixture: every function violates one
// rule. Every violation here is counted by TestDetBadFixture; update both
// together.
package detbad

import (
	"fmt"
	"math/rand"
	mrand "math/rand"
	"sort"
	"time"
)

var counters = map[string]int64{}

// wallClock violates the wallclock rule twice.
func wallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// globalRand violates the globalrand rule, including through an alias.
func globalRand() int {
	rand.Shuffle(3, func(i, j int) {})
	return rand.Intn(10) + mrand.Int()
}

// mapOrder violates the maprange rule: no sort, no waiver.
func mapOrder() int64 {
	var total int64
	for _, v := range counters {
		total += v
	}
	return total
}

// mapOrderField ranges over a map reached through a selector.
type holder struct {
	seen map[uint32]bool
}

func (h *holder) first() uint32 {
	for k := range h.seen {
		return k
	}
	return 0
}

// mapOrderLaundered violates maprange inside a closure: the genuine sort.*
// call later in the enclosing function must not sanction the closure's bare
// iteration — the sanction is scoped to the innermost function.
func mapOrderLaundered() (func() int64, []string) {
	f := func() int64 {
		var total int64
		for _, v := range counters {
			total += v
		}
		return total
	}
	keys := []string{"b", "a"}
	sort.Strings(keys)
	return f, keys
}

// groupCounts returns a map; ranging over the call result directly is the
// Q6 GroupCount shape (DESIGN.md §6) that a declaration-matching heuristic
// cannot see.
func groupCounts() map[uint32]int64 { return map[uint32]int64{1: 2} }

// mapOrderCall violates maprange over a call result.
func mapOrderCall() []uint32 {
	var out []uint32
	for k := range groupCounts() {
		out = append(out, k)
	}
	return out
}

// idSet is a named map type: the range expression's declared type is an
// identifier, not a map literal type.
type idSet map[uint32]struct{}

// mapOrderNamed violates maprange over a named map type.
func mapOrderNamed(ids idSet) uint32 {
	for id := range ids {
		return id
	}
	return 0
}

// printy violates the print rule.
func printy() {
	fmt.Println("cycle done")
	fmt.Printf("%d\n", 1)
}
