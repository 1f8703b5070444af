// Package blueprint registers every shipped graph topology in buildable —
// but not run — form, so static tooling can wire and analyze the real
// kernels without simulating them. aurochs-vet -graphs walks this registry
// through fabric.Graph.Prove: structural defects (Check diagnostics) and
// flow-control hazards (line-rate, credit starvation) in any registered
// topology fail the build, which is what makes the credit prover a CI
// gate rather than a test-only curiosity.
//
// Entries use the kernels' *Into wiring functions where they exist; a
// blueprint builds the same component graph a production run would, with
// tiny placeholder inputs (topology does not depend on data).
package blueprint

import (
	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// Blueprint is one registered graph topology.
type Blueprint struct {
	// Name identifies the topology in findings ("hash-build").
	Name string
	// Doc says what the graph computes.
	Doc string
	// Build wires a fresh instance of the graph without running it.
	Build func() (*fabric.Graph, error)
}

// sampleRecs returns n two-field placeholder records.
func sampleRecs(n int) []record.Rec {
	out := make([]record.Rec, n)
	for i := range out {
		out[i] = record.Make(uint32(i), uint32(i))
	}
	return out
}

// All returns the registered blueprints in deterministic order.
func All() []Blueprint {
	return []Blueprint{
		{
			Name: "countdown-loop",
			Doc:  "canonical recirculating pipeline: LoopMerge, body, exit Filter",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				s := record.NewSchema("id", "count")
				ext, body, dec, exit, recirc := g.Link("ext"), g.Link("body"),
					g.Link("dec"), g.Link("exit"), g.Link("recirc")
				ctl := fabric.NewLoopCtl()
				g.Add(fabric.NewSource("src", sampleRecs(8), ext).Typed(s))
				g.Add(fabric.NewLoopMerge("entry", recirc, ext, body, ctl).Typed(s, s, s))
				g.Add(fabric.NewMap("dec", func(r *record.Rec) {
					if c := r.Get(1); c > 0 {
						r.Put(1, c-1)
					}
				}, body, dec).Typed(s, s))
				g.Add(fabric.NewFilter("exit?", func(r *record.Rec) int {
					if r.Get(1) == 0 {
						return 0
					}
					return 1
				}, dec, []fabric.Output{
					{Link: exit, Exit: true},
					{Link: recirc, NoEOS: true},
				}, ctl).Typed(s))
				g.Add(fabric.NewSink("snk", exit).Typed(s))
				return g, nil
			},
		},
		{
			Name: "hash-build",
			Doc:  "hash-table build pipeline (paper fig. 5): CAS-prepend over scratchpad buckets with DRAM overflow",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				in := sampleRecs(64)
				_, _, err := core.BuildHashTableInto(g, "bld", core.DefaultHashTableParams(len(in)), core.InRecs(in))
				return g, err
			},
		},
		{
			Name: "hash-build-probe",
			Doc:  "build and probe pipelines sharing one graph and HBM (streaming join shape, fig. 12)",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				in := sampleRecs(64)
				ht, _, err := core.BuildHashTableInto(g, "bld", core.DefaultHashTableParams(len(in)), core.InRecs(in))
				if err != nil {
					return nil, err
				}
				core.ProbeHashTableInto(g, "prb", ht, core.InRecs(sampleRecs(32)), core.ProbeOptions{})
				return g, err
			},
		},
		{
			Name: "hash-aggregate",
			Doc:  "lock-free counting aggregation (paper §IV-A): chain walk, FAA on a match, CAS-prepend insert with re-walk on failure",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				keys := make([]uint32, 64)
				for i := range keys {
					keys[i] = uint32(i*7) % 16 // 16 groups of 4: matches and CAS races
				}
				_, _, err := core.HashAggregateInto(g, core.DefaultHashTableParams(len(keys)), keys)
				return g, err
			},
		},
		{
			Name: "streamjoin",
			Doc:  "symmetric stream-join window (paper §IV-A): both sides' inserts and cross-probes concurrently in one graph",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				j, err := core.NewSymmetricJoin(core.DefaultHashTableParams(64), g.HBM)
				if err != nil {
					return nil, err
				}
				_, err = j.WindowInto(g, "win", core.InRecs(sampleRecs(16)),
					core.InRecs(sampleRecs(16)), core.ProbeOptions{})
				return g, err
			},
		},
		{
			Name: "partition",
			Doc:  "radix partition pipeline (paper fig. 6): fused FAA block allocation with a retry loop",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				in := sampleRecs(64)
				_, _, err := core.PartitionInto(g, "prt", core.DefaultPartitionParams(len(in), 16, 2), core.InRecs(in))
				return g, err
			},
		},
		{
			Name: "dram-stream",
			Doc:  "dense DRAM scan feeding a DRAM append: the run-materialization path",
			Build: func() (*fabric.Graph, error) {
				g := fabric.NewGraph()
				g.AttachHBM(dram.New(dram.DefaultConfig()))
				s := record.NewSchema("key", "val")
				mid := g.Link("mid")
				fabric.NewDRAMScan(g, "scan", []fabric.Extent{{Addr: 4096, Words: 256}}, 2, mid).Typed(s)
				fabric.NewDRAMAppend(g, "app", 1<<20, 2, mid).Typed(s)
				return g, nil
			},
		},
	}
}
