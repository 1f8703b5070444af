// aurochs-sim runs a single kernel on the cycle-level fabric simulator and
// prints its timing and microarchitectural counters — the quickest way to
// poke at the machine.
//
// Usage:
//
//	aurochs-sim -kernel hashjoin -n 20000 -p 4
//	aurochs-sim -kernel probe -n 50000 -inorder     # Capstan ablation
//	aurochs-sim -kernel partition -n 100000 -parts 16
//	aurochs-sim -kernel sort -n 200000
//	aurochs-sim -kernel btree -n 100000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/record"
)

func main() {
	kernel := flag.String("kernel", "hashjoin", "hashjoin | build | probe | partition | sort | btree")
	n := flag.Int("n", 20000, "records")
	p := flag.Int("p", 4, "parallel pipelines (hashjoin)")
	parts := flag.Uint("parts", 8, "partitions (partition kernel)")
	seed := flag.Int64("seed", 1, "input seed")
	inorder := flag.Bool("inorder", false, "Capstan in-order scratchpad (ablation)")
	nofwd := flag.Bool("nofwd", false, "disable RMW forwarding (ablation)")
	stats := flag.Bool("stats", false, "dump all microarchitectural counters")
	flag.Parse()

	tun := core.Tuning{InOrderSpad: *inorder, NoForwarding: *nofwd}
	rng := rand.New(rand.NewSource(*seed))
	// Keys draw from a space half the input size so joins and probes
	// actually match.
	keyMod := uint32(*n/2 + 1)
	mk := func() []record.Rec {
		out := make([]record.Rec, *n)
		for i := range out {
			out[i] = record.Make(rng.Uint32()%keyMod, uint32(i))
		}
		return out
	}

	var res core.Result
	var err error
	var extra string
	switch *kernel {
	case "hashjoin":
		var matches []record.Rec
		matches, res, err = core.HashJoin(nil, mk(), mk(), core.HashJoinOptions{Pipelines: *p, Tuning: tun})
		extra = fmt.Sprintf("matches=%d", len(matches))
	case "build":
		params := core.DefaultHashTableParams(*n)
		params.Tuning = tun
		_, res, err = core.BuildHashTable(params, mk(), nil)
	case "probe":
		params := core.DefaultHashTableParams(*n)
		params.Tuning = tun
		var ht *core.HashTable
		ht, _, err = core.BuildHashTable(params, mk(), nil)
		if err == nil {
			var matches []record.Rec
			matches, res, err = core.ProbeHashTable(ht, mk(), core.ProbeOptions{})
			extra = fmt.Sprintf("matches=%d", len(matches))
		}
	case "partition":
		params := core.DefaultPartitionParams(*n, uint32(*parts), 2)
		params.Tuning = tun
		var ps *core.PartitionSet
		ps, res, err = core.Partition(params, mk(), nil)
		if err == nil {
			extra = fmt.Sprintf("blocks=%d", ps.Blocks)
		}
	case "sort":
		hbm := dram.New(dram.DefaultConfig())
		run := core.MaterializeRun(hbm, core.RegionTables, mk(), 2)
		_, res, err = core.Sort(hbm, run, func(r record.Rec) uint64 { return uint64(r.Get(0)) })
	case "btree":
		hbm := dram.New(dram.DefaultConfig())
		items := make([]btree.KV, *n)
		for i := range items {
			items[i] = btree.KV{Key: rng.Uint32(), Val: uint32(i)}
		}
		tr := btree.Build(hbm, core.RegionTables, items)
		queries := make([]core.RangeQuery, 1000)
		for i := range queries {
			lo := rng.Uint32()
			queries[i] = core.RangeQuery{Lo: lo, Hi: lo + 1<<20, Tag: uint32(i)}
		}
		var hits []record.Rec
		hits, res, err = core.BTreeSearch(tr, queries, 1)
		extra = fmt.Sprintf("hits=%d height=%d", len(hits), tr.Height)
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("kernel=%s n=%d cycles=%d (%.3f cycles/rec, %.2f µs at 1 GHz)\n",
		*kernel, *n, res.Cycles, float64(res.Cycles)/float64(*n), float64(res.Cycles)/1e3)
	fmt.Printf("dram traffic: %d bytes (%.1f B/rec)\n", res.DRAMBytes, float64(res.DRAMBytes)/float64(*n))
	if extra != "" {
		fmt.Println(extra)
	}
	if *stats && res.Stats != nil {
		fmt.Print(res.Stats)
	}
}
