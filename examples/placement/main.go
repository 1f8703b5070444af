// Placement: the paper lowers each query plan to a tile graph and maps it
// onto the 20×20 fabric with a place-and-route tool (§V-B). This example
// wires the fig. 6a hash-probe kernel, takes its netlist from the wired
// graph, places it, renders the layout and reports wirelength, then runs
// that same graph. Every link runs at the default latency: graphs do not
// yet take per-link latencies from a placement, so the example does not
// measure how the probe behaves at the placed latencies.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"aurochs/internal/core"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	build := make([]record.Rec, n)
	probe := make([]record.Rec, n)
	for i := range build {
		build[i] = record.Make(rng.Uint32()%(n/2), uint32(i))
		probe[i] = record.Make(rng.Uint32()%(n/2), uint32(i))
	}
	ht, _, err := core.BuildHashTable(core.DefaultHashTableParams(n), build, nil)
	if err != nil {
		log.Fatal(err)
	}
	g := fabric.NewGraph()
	g.AttachHBM(ht.HBM)
	snk := core.ProbeHashTableInto(g, "prb", ht, core.InRecs(probe), core.ProbeOptions{})

	nl := g.Netlist()
	p, err := fabric.Place(nl, fabric.GorgonGrid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe kernel: %d tiles, %d links placed on a %dx%d grid\n",
		len(nl.Nodes), len(nl.Edges), fabric.GorgonGrid.X, fabric.GorgonGrid.Y)
	fmt.Println(p.Render())
	total, mean, err := p.WireStats(nl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wirelength: %d hops total, %.2f hops/link (kernels assume %d-cycle links)\n\n",
		total, mean, fabric.LinkLatency)

	cycles, err := g.Run(int64(n)*200 + 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe of %d keys (%d matches): %d cycles with every link at %d cycles\n",
		n, snk.Count(), cycles, fabric.LinkLatency)
	fmt.Println()
	fmt.Println("The threading model hides on-chip latency by keeping enough threads")
	fmt.Println("in flight: 'full hardware utilization is possible even with")
	fmt.Println("arbitrary on-chip latencies as long as there are enough threads'")
	fmt.Println("(paper §III-A).")
}
