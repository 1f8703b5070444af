package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// PerfRun is one timed serial kernel execution.
type PerfRun struct {
	Cycles       int64   `json:"cycles"`
	DRAMBytes    int64   `json:"dram_bytes"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// PerfExperiment is one workload's serial-throughput measurement. The
// "serial" key is the one every committed BENCH_*.json report uses, so old
// baselines still decode.
type PerfExperiment struct {
	Name   string  `json:"name"`
	Rows   int     `json:"rows"`
	Serial PerfRun `json:"serial"`
}

// PerfReport is the top-level benchmark document (BENCH_*.json).
type PerfReport struct {
	Benchmark  string `json:"benchmark"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Quick      bool   `json:"quick"`
	// Reps is how many times Perf ran each kernel; a report's wall time
	// is the median of those runs. Reports before BENCH_7 leave it 0:
	// they timed one run.
	Reps        int              `json:"reps,omitempty"`
	Experiments []PerfExperiment `json:"experiments"`
}

// perfRows is each swept kernel's dataset size in the -json report. Every
// committed report since BENCH_3 used these sizes, so -compare against any
// of them measures the same work.
var perfRows = map[string]int{
	"fig11a-hashjoin-p16": 1 << 15,
	"hash-aggregate":      1 << 16,
	"partition-8way":      1 << 16,
}

// perfReps is how many times Perf runs each kernel. One run takes
// 0.05-0.25 s, and the median of five ignores a run slowed by another
// process. It does not remove slower drifts in the host's speed, which
// set -compare's tolerance (EXPERIMENTS.md, "Serial gate").
const perfReps = 5

// Perf times every swept kernel perfReps times at its perfRows size and
// writes the median run to jsonPath (and a human summary to stdout). quick
// shrinks the datasets 4x for CI. Every run of a kernel must simulate the
// same cycles and DRAM bytes.
func Perf(jsonPath string, quick bool) error {
	rep := PerfReport{
		Benchmark:  "aurochs-sim serial kernel throughput",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		Reps:       perfReps,
	}
	fmt.Printf("== serial kernel throughput (GOMAXPROCS=%d, NumCPU=%d, median of %d) ==\n", rep.GOMAXPROCS, rep.NumCPU, perfReps)
	for _, k := range sweepKernels() {
		rows := perfRows[k.name]
		if quick {
			rows /= 4
		}
		var run PerfRun
		walls := make([]float64, perfReps)
		for i := range walls {
			// Start each run from a collected heap, so one run's garbage
			// (or the previous kernel's) is not collected on the next
			// one's clock.
			runtime.GC()
			start := time.Now()
			res, err := k.run(rows)
			walls[i] = time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			if i > 0 && (res.Cycles != run.Cycles || res.DRAMBytes != run.DRAMBytes) {
				return fmt.Errorf("%s: run %d simulated %d cycles, %d DRAM bytes; run 0 simulated %d, %d",
					k.name, i, res.Cycles, res.DRAMBytes, run.Cycles, run.DRAMBytes)
			}
			run.Cycles, run.DRAMBytes = res.Cycles, res.DRAMBytes
		}
		sort.Float64s(walls)
		run.WallSeconds = walls[perfReps/2]
		if run.WallSeconds > 0 {
			run.CyclesPerSec = float64(run.Cycles) / run.WallSeconds
		}
		rep.Experiments = append(rep.Experiments, PerfExperiment{Name: k.name, Rows: rows, Serial: run})
		fmt.Printf("%-22s rows=%-7d %.2fs (%.0f cyc/s)\n", k.name, rows, run.WallSeconds, run.CyclesPerSec)
	}
	return writeJSON(jsonPath, rep)
}

// writeJSON writes a report as indented JSON to path; an empty path skips
// the write.
func writeJSON(path string, rep any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// Compare gates a fresh perf report against a committed baseline: any
// experiment present in both whose serial cycles/sec fell below
// (1-tolerance) of the baseline fails. Extra or missing experiments are
// reported but do not fail (benchmarks evolve).
func Compare(newPath, basePath string, tolerance float64) error {
	load := func(p string) (PerfReport, error) {
		var r PerfReport
		data, err := os.ReadFile(p)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(data, &r)
	}
	cur, err := load(newPath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	base, err := load(basePath)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	baseBy := make(map[string]PerfExperiment, len(base.Experiments))
	for _, e := range base.Experiments {
		baseBy[e.Name] = e
	}
	var failures []string
	for _, e := range cur.Experiments {
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Printf("compare: %s has no baseline entry (new experiment)\n", e.Name)
			continue
		}
		if b.Serial.CyclesPerSec > 0 {
			ratio := e.Serial.CyclesPerSec / b.Serial.CyclesPerSec
			fmt.Printf("compare: %-22s serial %8.0f -> %8.0f cyc/s (%.2fx)\n",
				e.Name, b.Serial.CyclesPerSec, e.Serial.CyclesPerSec, ratio)
			if ratio < 1.0-tolerance {
				failures = append(failures, fmt.Sprintf(
					"%s: serial cycles/sec regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
					e.Name, (1-ratio)*100, b.Serial.CyclesPerSec, e.Serial.CyclesPerSec, tolerance*100))
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		return fmt.Errorf("compare: %d regression(s) vs %s", len(failures), basePath)
	}
	fmt.Printf("compare: no regressions vs %s\n", basePath)
	return nil
}
