package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aurochs/internal/core"
)

// SweepPoint is one row count on an experiment's scaling curve, measured on
// the serial kernel (the configuration the paper-scale rows run under and
// the one the CI floor gates).
type SweepPoint struct {
	Rows         int     `json:"rows"`
	Cycles       int64   `json:"cycles"`
	DRAMBytes    int64   `json:"dram_bytes"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// RowsPerSec is simulated input throughput: how many rows of input the
	// harness chews through per wall-clock second — the number that decides
	// whether paper-scale (≥1M row) curves are practical to regenerate.
	RowsPerSec float64 `json:"rows_per_sec"`
}

// SweepExperiment is one kernel's rows-vs-throughput scaling curve.
type SweepExperiment struct {
	Name   string       `json:"name"`
	Points []SweepPoint `json:"points"`
}

// SweepReport is the top-level scaling-curve document (BENCH_5-style).
type SweepReport struct {
	Benchmark      string            `json:"benchmark"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	NumCPU         int               `json:"num_cpu"`
	SingleCoreHost bool              `json:"single_core_host"`
	Quick          bool              `json:"quick"`
	Rows           []int             `json:"rows"`
	Experiments    []SweepExperiment `json:"experiments"`
}

// sweepKernels returns the swept experiments: each builds and runs the
// kernel at one row count on the serial kernel and returns the Result.
// The fig. 11a join is the headline curve; the aggregate and partition
// kernels ride along so a regression localized to one kernel shape is
// visible as such.
func sweepKernels() []struct {
	name string
	run  func(rows int) (core.Result, error)
} {
	return []struct {
		name string
		run  func(rows int) (core.Result, error)
	}{
		{"fig11a-hashjoin-p16", func(rows int) (core.Result, error) {
			_, res, err := core.HashJoin(nil, mkKV(rows, 1), mkKV(rows, 2), core.HashJoinOptions{Pipelines: 16})
			return res, err
		}},
		{"hash-aggregate", func(rows int) (core.Result, error) {
			keys := make([]uint32, rows)
			for i := range keys {
				keys[i] = uint32(i % 997)
			}
			p := core.DefaultHashTableParams(1024)
			_, res, err := core.HashAggregate(p, keys, nil)
			return res, err
		}},
		{"partition-8way", func(rows int) (core.Result, error) {
			p := core.DefaultPartitionParams(rows, 8, 2)
			_, res, err := core.Partition(p, mkKV(rows, 9), nil)
			return res, err
		}},
	}
}

// ParseRows parses a -rows specification: comma-separated row counts, each
// a plain integer or with a k/m suffix (1024-based, case-insensitive), e.g.
// "8k,32k,1m" or "8192,32768,1048576". Counts are deduplicated and sorted.
func ParseRows(spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(tok, "k"):
			mult, tok = 1024, tok[:len(tok)-1]
		case strings.HasSuffix(tok, "m"):
			mult, tok = 1024*1024, tok[:len(tok)-1]
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bench: bad row count %q in -rows", tok)
		}
		n *= mult
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: -rows specifies no row counts")
	}
	sort.Ints(out)
	return out, nil
}

// Sweep runs every swept kernel at each requested row count on the serial
// kernel, prints the scaling curves, and writes the report to jsonPath.
// quick is recorded in the report so a CI-sized sweep can never be mistaken
// for the committed full-scale document.
func Sweep(jsonPath string, rows []int, quick bool) error {
	rep := SweepReport{
		Benchmark:      "aurochs-sim rows-vs-throughput scaling sweep (serial kernel)",
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		SingleCoreHost: runtime.NumCPU() < 2,
		Quick:          quick,
		Rows:           rows,
	}
	fmt.Printf("== rows-vs-throughput sweep (serial kernel, GOMAXPROCS=%d) ==\n", rep.GOMAXPROCS)
	for _, k := range sweepKernels() {
		exp := SweepExperiment{Name: k.name}
		for _, n := range rows {
			start := time.Now()
			res, err := k.run(n)
			wall := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s rows=%d: %w", k.name, n, err)
			}
			pt := SweepPoint{Rows: n, Cycles: res.Cycles, DRAMBytes: res.DRAMBytes, WallSeconds: wall}
			if wall > 0 {
				pt.CyclesPerSec = float64(res.Cycles) / wall
				pt.RowsPerSec = float64(n) / wall
			}
			exp.Points = append(exp.Points, pt)
			fmt.Printf("%-22s rows=%-8d cycles=%-10d %8.2fs  %9.0f cyc/s  %9.0f rows/s\n",
				k.name, n, pt.Cycles, pt.WallSeconds, pt.CyclesPerSec, pt.RowsPerSec)
		}
		rep.Experiments = append(rep.Experiments, exp)
	}
	return writeJSON(jsonPath, rep)
}

// GateSerialFloor enforces absolute serial-throughput floors on a sweep
// report. spec is comma-separated "experiment@rows:minCyclesPerSec"
// requirements (row counts accept the k/m suffixes of -rows), e.g.
// "fig11a-hashjoin-p16@32k:30000". It pins the simulator's absolute
// speed, so it holds on single-core CI runners.
func GateSerialFloor(path, spec string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	point := func(name string, rows int) *SweepPoint {
		for i := range rep.Experiments {
			if rep.Experiments[i].Name != name {
				continue
			}
			for j := range rep.Experiments[i].Points {
				if rep.Experiments[i].Points[j].Rows == rows {
					return &rep.Experiments[i].Points[j]
				}
			}
		}
		return nil
	}
	var failures []string
	for _, req := range strings.Split(spec, ",") {
		req = strings.TrimSpace(req)
		if req == "" {
			continue
		}
		target, floorStr, ok := strings.Cut(req, ":")
		if !ok {
			return fmt.Errorf("gate: requirement %q lacks a :minCyclesPerSec floor", req)
		}
		name, rowStr, ok := strings.Cut(target, "@")
		if !ok {
			return fmt.Errorf("gate: requirement %q lacks an @rows target", req)
		}
		rowList, err := ParseRows(rowStr)
		if err != nil || len(rowList) != 1 {
			return fmt.Errorf("gate: bad row count in requirement %q", req)
		}
		floor, err := strconv.ParseFloat(floorStr, 64)
		if err != nil {
			return fmt.Errorf("gate: bad floor in requirement %q: %w", req, err)
		}
		pt := point(name, rowList[0])
		switch {
		case pt == nil:
			failures = append(failures, fmt.Sprintf("%s@%d: no such point in %s", name, rowList[0], path))
		case pt.CyclesPerSec < floor:
			failures = append(failures, fmt.Sprintf("%s@%d: serial %.0f cyc/s below floor %.0f",
				name, pt.Rows, pt.CyclesPerSec, floor))
		default:
			fmt.Printf("gate: %-22s @%-8d ok — serial %.0f cyc/s >= floor %.0f\n",
				name, pt.Rows, pt.CyclesPerSec, floor)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		return fmt.Errorf("gate: %d serial-floor requirement(s) unmet in %s", len(failures), path)
	}
	return nil
}
