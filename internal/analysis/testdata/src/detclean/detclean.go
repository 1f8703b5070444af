// Package detclean is a determinism fixture: every function uses the
// sanctioned form of a pattern the determinism rules would otherwise flag.
package detclean

import (
	"fmt"
	"math/rand"
	"sort"
)

var counters = map[string]int64{}

// sortedKeys is the collect-then-sort idiom (sim.Stats.Names): iteration
// order never escapes because the keys are sorted before use.
func sortedKeys() []string {
	out := make([]string, 0, len(counters))
	for name := range counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// waived carries the explicit order-independence waiver.
func waived() int64 {
	var total int64
	// lint:maprange-ok — addition is commutative; order cannot matter.
	for _, v := range counters {
		total += v
	}
	return total
}

// seeded uses a locally seeded generator, not the global one.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// formats uses fmt for strings and errors, never stdout.
func formats(n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("negative: %d", n)
	}
	return fmt.Sprintf("%d", n), nil
}

// closureSorted is the regression fixture for the closure-scoped sanction:
// the collect-then-sort idiom lives entirely inside a function literal, and
// the sanction must find the sort in the innermost FuncLit rather than only
// scanning the named declaration.
func closureSorted() func() []string {
	return func() []string {
		keys := make([]string, 0, len(counters))
		for name := range counters {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		return keys
	}
}

// pkgLevelSorted hangs the same sanctioned idiom off a package-level var —
// a scope a per-declaration walk never visits.
var pkgLevelSorted = func() []string {
	keys := make([]string, 0, len(counters))
	for name := range counters {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}

// index declares a map field named rows; the slice parameter of the same
// name below is still a slice.
type index struct {
	rows map[int]int
}

func (ix *index) get(k int) int { return ix.rows[k] }

// slices ranges over non-maps — one sharing its name with a map field
// declared above; maprange must judge the expression's type, not its name.
func slices(rows []int, open [4]bool) int {
	total := 0
	for _, r := range rows {
		total += r
	}
	for b := range open {
		_ = b
	}
	return total
}
