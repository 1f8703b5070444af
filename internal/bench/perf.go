package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
	Benchmark   string           `json:"benchmark"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"num_cpu"`
	Quick       bool             `json:"quick"`
	Experiments []PerfExperiment `json:"experiments"`
}

// perfRows is each swept kernel's dataset size in the -json report. The
// sizes are BENCH_3's, so -compare against it measures the same work.
var perfRows = map[string]int{
	"fig11a-hashjoin-p16": 1 << 15,
	"hash-aggregate":      1 << 16,
	"partition-8way":      1 << 16,
}

// Perf times every swept kernel once at its perfRows size and writes the
// report to jsonPath (and a human summary to stdout). quick shrinks the
// datasets 4x for CI.
func Perf(jsonPath string, quick bool) error {
	rep := PerfReport{
		Benchmark:  "aurochs-sim serial kernel throughput",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
	}
	fmt.Printf("== serial kernel throughput (GOMAXPROCS=%d, NumCPU=%d) ==\n", rep.GOMAXPROCS, rep.NumCPU)
	for _, k := range sweepKernels() {
		rows := perfRows[k.name]
		if quick {
			rows /= 4
		}
		start := time.Now()
		res, err := k.run(rows)
		wall := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		run := PerfRun{Cycles: res.Cycles, DRAMBytes: res.DRAMBytes, WallSeconds: wall}
		if wall > 0 {
			run.CyclesPerSec = float64(res.Cycles) / wall
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
