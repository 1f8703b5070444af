// Command perfbench is the repository benchmark. It drives one seeded
// workload through the simulator's public kernel API in a closed loop (one
// caller, one invocation at a time), checks every output against a host
// reference, and prints either the end-to-end metrics (untraced run) or the
// per-layer ledger (traced run). Everything it reports is measured from
// outside the program: wall-clock spans around the public calls, counters
// the API already returns, and a CPU profile folded by package.
//
//	perfbench -workload join-fig11a -seed 1 -seconds 30 -trace 0
//
// It reads the metric names and units from BENCHMARK.json in the working
// directory, the repository root.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// ledger: provenance, failures, and the reason for every absent metric.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"aurochs/internal/queries"
)

//go:embed manifest.json
var manifestJSON []byte

// manifest holds what BENCHMARK.json has no keys for: each workload's
// default seed, and the known measurement gaps. manifest.json also records
// a held-out seed per workload, for re-checking a claim on data not used
// while tuning.
type manifest struct {
	Seeds map[string]struct {
		Default int64 `json:"default"`
	} `json:"seeds"`
	Gaps map[string]struct {
		Reason    string   `json:"reason"`
		Workloads []string `json:"workloads"`
		// Metrics are names, or prefixes ending in "*".
		Metrics []string `json:"metrics"`
	} `json:"gaps"`
}

// gapFor returns the id of the manifest gap that explains why metric
// cannot be measured on workload, if there is one.
func (m *manifest) gapFor(workload, metric string) (string, bool) {
	for id, g := range m.Gaps {
		if !slices.Contains(g.Workloads, workload) {
			continue
		}
		for _, pat := range g.Metrics {
			if pat == metric || strings.HasSuffix(pat, "*") && strings.HasPrefix(metric, strings.TrimSuffix(pat, "*")) {
				return id, true
			}
		}
	}
	return "", false
}

// specFile defines the benchmark; spec is the part of it the program
// reads: the metrics each mode prints, with their units.
const specFile = "BENCHMARK.json"

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// setupReps is how many times a run generates its inputs; setup_s is the
// median, so one slow generation does not move it.
const setupReps = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "input seed (default: the workload's default seed in manifest.json)")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if err := execute(*name, *seed, seedSet, *seconds, *trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func execute(name string, seed int64, seedSet bool, seconds int, traced bool, stdout io.Writer) error {
	// The knob silently swaps the tick kernel under every workload, so a
	// result taken with it set would not describe the default kernel.
	if v, ok := os.LookupEnv("AUROCHS_WORKERS"); ok {
		return fmt.Errorf("refusing to run with AUROCHS_WORKERS=%q set", v)
	}
	var man manifest
	if err := json.Unmarshal(manifestJSON, &man); err != nil {
		return fmt.Errorf("manifest.json: %w", err)
	}
	raw, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if !seedSet {
		seed = man.Seeds[w.name].Default
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	// Set-up is input generation only. The reference outputs come after
	// it, outside both setup_s and the timed region.
	var b bench
	setups := make([]float64, setupReps)
	for i := range setups {
		start := time.Now()
		b = w.setup(seed)
		setups[i] = time.Since(start).Seconds()
	}
	if err := b.reference(); err != nil {
		return err
	}

	// The first invocation warms the heap and caches; it is checked and
	// counted but not timed.
	var t tally
	warm := b.invoke(false)
	t.add(warm)
	measure := time.Duration(seconds) * time.Second
	if traced {
		measure /= 2
	}
	plain := loop(b, measure, false, &t)

	l := newLedger()
	metrics := sp.EndToEnd
	if !traced {
		l.set("host_ns_per_row", nsPerRow(plain, b.rows()))
		l.set("sim_cycles", warm.cycles)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		l.set("host_peak_rss_mb", rss)
		l.set("setup_s", median(setups))
	} else {
		metrics = sp.PerLayer
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		outs := loop(b, measure, true, &t)
		pprof.StopCPUProfile()
		leaves, err := leafSamples(prof.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		perLayer(l, outs, leaves, b.rows(), nsPerRow(plain, b.rows()))
	}

	out := make(map[string]metricOut, len(metrics))
	for _, m := range metrics {
		v, ok := l.value(m.Name)
		if !ok {
			why, known := man.gapFor(w.name, m.Name)
			if !known {
				return fmt.Errorf("metric %q is neither measured on %s nor a gap listed in manifest.json", m.Name, w.name)
			}
			l.gap(m.Name, why)
			v, _ = l.value(m.Name)
		}
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	knownGaps := map[string]string{}
	for id, g := range man.Gaps {
		if slices.Contains(g.Workloads, w.name) {
			knownGaps[id] = g.Reason
		}
	}

	ledgerLine := map[string]any{
		"workload": w.name,
		"seed":     seed,
		"seconds":  seconds,
		"traced":   traced,
		"provenance": map[string]any{
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"go_version":  runtime.Version(),
			"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
			"kernel":      warm.kernel,
		},
		"invocations": t.invocations,
		"timed_s":     wallSeconds(plain),
		"failures":    t.notes,
		"absent":      l.absent,
		"known_gaps":  knownGaps,
	}
	if err := writeJSONLine(stdout, map[string]any{"ledger": ledgerLine}); err != nil {
		return err
	}
	return writeJSONLine(stdout, result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   out,
	})
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func writeJSONLine(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tally counts attempted and failed operations across a run, and holds
// the simulated signature of the first invocation: the same seed must
// reproduce it exactly, so any difference is a failed operation.
type tally struct {
	attempted, failed, invocations int
	sig                            []string
	notes                          []string
}

// maxNotes bounds the failure descriptions kept for the ledger.
const maxNotes = 8

func (t *tally) add(o outcome) {
	t.invocations++
	t.attempted += o.ops
	failed, notes := o.failed, o.notes
	if t.sig == nil {
		t.sig = o.sig
	} else if o.failed == 0 {
		for i, s := range o.sig {
			if i >= len(t.sig) || s != t.sig[i] {
				failed++
				notes = append(notes, "simulated counts differ from the first invocation: "+s)
			}
		}
	}
	t.failed += failed
	for _, n := range notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

// loop invokes the workload back to back until d has elapsed, at least
// once, tallying each outcome.
func loop(b bench, d time.Duration, traced bool, t *tally) []outcome {
	var outs []outcome
	deadline := time.Now().Add(d)
	for len(outs) == 0 || time.Now().Before(deadline) {
		// Each invocation starts from a collected heap, so where the
		// collector runs inside it, and how high the heap peaks, does not
		// depend on the garbage the previous invocation left behind.
		runtime.GC()
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		o := b.invoke(traced)
		if traced {
			runtime.ReadMemStats(&after)
			o.host["host.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		}
		t.add(o)
		outs = append(outs, o)
	}
	return outs
}

// wallSeconds lists the host seconds of each invocation in outs.
func wallSeconds(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.seconds()
	}
	return xs
}

// nsPerRow is the host nanoseconds per input row of outs: the sum over
// units of work of each unit's median time. For the mix that is a median
// per city, so a burst of host noise during one city's queries moves one
// of eight medians rather than the whole invocation.
func nsPerRow(outs []outcome, rows int) float64 {
	var ns float64
	for i := range outs[0].wall {
		xs := make([]float64, len(outs))
		for j, o := range outs {
			xs[j] = float64(o.wall[i].Nanoseconds())
		}
		ns += median(xs)
	}
	return ns / float64(rows)
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// perLayer fills a traced run's ledger: the simulated counts of the first
// traced invocation (they repeat exactly), the median of every host-time
// part, and each layer's share of the profile's samples.
func perLayer(l *ledger, outs []outcome, leaves map[string]int64, rows int, plainNsPerRow float64) {
	for name, v := range outs[0].sim.vals {
		l.set(name, v)
	}
	for name, why := range outs[0].sim.absent {
		l.gap(name, why)
	}
	parts := map[string][]float64{}
	for _, o := range outs {
		for name, v := range o.host {
			parts[name] = append(parts[name], v)
		}
	}
	for name, xs := range parts {
		l.set(name, median(xs))
	}
	l.set("sim.cycles_per_host_s", outs[0].cycles/median(wallSeconds(outs)))
	l.set("trace_overhead_frac", nsPerRow(outs, rows)/plainNsPerRow-1)

	layers, total := foldLayers(leaves)
	l.set("profile.samples", float64(total))
	for _, layer := range profileLayers {
		l.ratio(layer+".host_self_share", float64(layers[layer]), float64(total))
	}
	// A span the workload never enters reads zero, not absent: the
	// benchmark made no such call.
	for _, k := range []string{"HashJoin", "HashAggregate"} {
		l.setDefault("core."+k+".host_s", 0)
		l.setDefault("core."+k+".calls", 0)
	}
	for _, op := range opNames {
		for _, f := range []string{"host_s", "sim_cycles", "calls", "in_rows"} {
			l.setDefault("queries.op."+op+"."+f, 0)
		}
	}
	for _, q := range queries.All() {
		l.setDefault("queries."+q.Name+".host_s", 0)
		l.setDefault("queries."+q.Name+".sim_cycles", 0)
	}
	l.setDefault("queries.plan_self_s", 0)
}
