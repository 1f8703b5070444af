package main

import (
	"sort"
	"strings"
)

// absentValue is printed for a metric the run could not measure. The
// result line needs a number; no count, time or share is negative, so -1
// cannot be mistaken for a measurement, and the ledger line names the
// reason.
const absentValue = -1

// ledger collects one run's metrics by name. A metric is either measured
// (vals) or absent with a reason (absent); absent is never recorded as 0.
type ledger struct {
	vals   map[string]float64
	absent map[string]string
}

func newLedger() *ledger {
	return &ledger{vals: map[string]float64{}, absent: map[string]string{}}
}

func (l *ledger) set(name string, v float64) {
	l.vals[name] = v
	delete(l.absent, name)
}

func (l *ledger) gap(name, why string) {
	if _, ok := l.vals[name]; !ok {
		l.absent[name] = why
	}
}

// setDefault sets name unless it is already measured or absent.
func (l *ledger) setDefault(name string, v float64) {
	if _, ok := l.vals[name]; ok {
		return
	}
	if _, ok := l.absent[name]; ok {
		return
	}
	l.vals[name] = v
}

// ratio records num/den, or marks name absent when the base is zero.
func (l *ledger) ratio(name string, num, den float64) {
	if den == 0 {
		l.gap(name, "zero base")
		return
	}
	l.set(name, num/den)
}

// value returns what the result line prints for name, and whether the run
// produced it at all (measured or absent with a reason).
func (l *ledger) value(name string) (float64, bool) {
	if v, ok := l.vals[name]; ok {
		return v, true
	}
	if _, ok := l.absent[name]; ok {
		return absentValue, true
	}
	return 0, false
}

// sumSuffix sums the counters whose name ends in suffix: the simulator
// names each component's counters "<component>.<event>", so a suffix sum
// totals one event over a layer's components.
func sumSuffix(counters map[string]int64, suffix string) int64 {
	var n int64
	for name, v := range counters {
		if strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// profileLayers are the layers the profile's leaf samples fold into, in
// report order. copy is runtime.duffcopy plus runtime.memmove (flit
// copies); runtime is every other runtime leaf; other is the standard
// library, the benchmark itself and anything unsymbolized.
var profileLayers = []string{
	"sim", "copy", "record", "ring", "fabric", "spad", "dram", "core",
	"queries", "index", "runtime", "other",
}

// layerOf maps a leaf function name to its profile layer.
func layerOf(fn string) string {
	switch fn {
	case "runtime.duffcopy", "runtime.memmove":
		return "copy"
	}
	pkg := packageOf(strings.TrimPrefix(fn, "type:.eq."))
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "aurochs/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "aurochs/internal/"), "/")
		for _, l := range profileLayers {
			if l == layer {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbolized Go function name such
// as "aurochs/internal/sim.(*System).RunWith". The path ends at the first
// dot after its last slash; receivers and type arguments, which may hold
// slashes and dots of their own, come after it.
func packageOf(fn string) string {
	end := strings.IndexAny(fn, "([")
	if end < 0 {
		end = len(fn)
	}
	slash := strings.LastIndex(fn[:end], "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// foldLayers sums leaf-function sample counts by layer.
func foldLayers(leaves map[string]int64) (map[string]int64, int64) {
	out := map[string]int64{}
	var total int64
	for fn, n := range leaves {
		out[layerOf(fn)] += n
		total += n
	}
	return out, total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
