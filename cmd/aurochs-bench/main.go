// aurochs-bench regenerates every table and figure of the paper's
// evaluation (§V): the area breakdown (fig. 10), join and spatial-join
// scaling (fig. 11a/b), throughput vs stream-level parallelism (fig. 12),
// the nine ridesharing queries with energy (fig. 14 / table 2), the GPU
// warp-efficiency profiling claim (§III-A), and the microarchitectural
// ablations.
//
// Usage:
//
//	aurochs-bench                  # everything
//	aurochs-bench -fig 11a         # one experiment
//	aurochs-bench -fig 14 -scale bench
//	aurochs-bench -json report.json -quick    # serial kernel throughput
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"aurochs/internal/bench"
)

// compareTolerance is the serial cycles/sec fraction a -compare run may
// lose against its baseline. Each report is a median of runs, but the
// host's speed drifts between reports: on the shared 2-vCPU host that
// produced BENCH_7.json, 20 reports from one binary read as low as 0.62
// of their median (EXPERIMENTS.md). A tighter gate would fail unchanged
// code there.
const compareTolerance = 0.40

func main() {
	fig := flag.String("fig", "all", "experiment: 10, 11a, 11b, 12, 14, warp, ablation, table2, all")
	scale := flag.String("scale", "small", "dataset scale for -fig 14: small | bench")
	pipelines := flag.Int("p", 4, "Aurochs pipelines for query execution")
	jsonOut := flag.String("json", "", "run the serial kernel throughput benchmark and write the report to this path")
	quick := flag.Bool("quick", false, "shrink -json benchmark datasets (CI-sized)")
	rows := flag.String("rows", "", "with -json: run the rows-vs-throughput scaling sweep at these comma-separated row counts (k/m suffixes ok, e.g. 32k,128k,1m) instead of the fixed-size report")
	compare := flag.String("compare", "", "after -json, gate the fresh report against this baseline report (fails below 60% of its serial cycles/sec)")
	gate := flag.String("gate", "", "with -json and -rows: require absolute serial floors (name@rows:minCyclesPerSec pairs)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *gate != "" && (*jsonOut == "" || *rows == "") {
		fmt.Fprintln(os.Stderr, "-gate needs -json and -rows")
		os.Exit(2)
	}
	if *jsonOut != "" {
		if *rows != "" {
			counts, err := bench.ParseRows(*rows)
			if err != nil {
				log.Fatal(err)
			}
			if err := bench.Sweep(*jsonOut, counts, *quick); err != nil {
				log.Fatal(err)
			}
			if *gate != "" {
				if err := bench.GateSerialFloor(*jsonOut, *gate); err != nil {
					log.Fatal(err)
				}
			}
			return
		}
		if err := bench.Perf(*jsonOut, *quick); err != nil {
			log.Fatal(err)
		}
		if *compare != "" {
			if err := bench.Compare(*jsonOut, *compare, compareTolerance); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	runs := map[string]func() error{
		"10":       bench.Fig10,
		"11a":      bench.Fig11a,
		"11b":      bench.Fig11b,
		"12":       bench.Fig12,
		"14":       func() error { return bench.Fig14(*scale, *pipelines) },
		"warp":     bench.WarpEfficiency,
		"ablation": bench.Ablation,
		"table2":   bench.Table2,
	}
	order := []string{"10", "11a", "11b", "12", "warp", "ablation", "table2", "14"}

	if *fig == "all" {
		for _, k := range order {
			if err := runs[k](); err != nil {
				log.Fatalf("fig %s: %v", k, err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runs[strings.ToLower(*fig)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
