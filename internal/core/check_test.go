package core

import (
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
)

// TestKernelGraphsPassCheck: every kernel constructor must wire a graph the
// static verifier accepts — the positive half of the Check contract (the
// negative half lives in fabric/check_test.go). Run performs the same check
// before simulating, so these assert the verifier is clean on real
// pipelines, not just that the pipelines happen to drain.
func TestKernelGraphsPassCheck(t *testing.T) {
	input := kv(256, 100, 7)

	t.Run("build pipeline", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(dram.New(dram.DefaultConfig()))
		if _, _, err := BuildHashTableInto(g, "bld", DefaultHashTableParams(len(input)), InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("build pipeline fails static check:\n%v", err)
		}
	})

	t.Run("probe pipeline", func(t *testing.T) {
		ht, _, err := BuildHashTable(DefaultHashTableParams(len(input)), input, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := fabric.NewGraph()
		g.AttachHBM(ht.HBM)
		ProbeHashTableInto(g, "prb", ht, InRecs(kv(64, 100, 8)), ProbeOptions{})
		if err := g.Check(); err != nil {
			t.Fatalf("probe pipeline fails static check:\n%v", err)
		}
	})

	t.Run("partition pipeline", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(dram.New(dram.DefaultConfig()))
		if _, _, err := PartitionInto(g, "prt", DefaultPartitionParams(len(input), 4, 2), InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("partition pipeline fails static check:\n%v", err)
		}
	})

	t.Run("two pipelines sharing a graph", func(t *testing.T) {
		g := fabric.NewGraph()
		g.AttachHBM(dram.New(dram.DefaultConfig()))
		if _, _, err := BuildHashTableInto(g, "p0", DefaultHashTableParams(len(input)), InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := PartitionInto(g, "p1", DefaultPartitionParams(len(input), 4, 2), InRecs(input)); err != nil {
			t.Fatal(err)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("shared graph fails static check:\n%v", err)
		}
	})
}

// TestProbeKernelPlacementMatchesDefault: the default LinkLatency used by
// every kernel must match the placed reality of the probe kernel within a
// hop — the justification for not threading a placement through each graph.
// The netlist is the real fig. 6a probe graph's, so it cannot drift from
// the wiring.
func TestProbeKernelPlacementMatchesDefault(t *testing.T) {
	g := fabric.NewGraph()
	g.AttachHBM(dram.New(dram.DefaultConfig()))
	ht, err := NewHashTable(DefaultHashTableParams(64), g.HBM)
	if err != nil {
		t.Fatal(err)
	}
	ProbeHashTableInto(g, "prb", ht, InRecs(kv(64, 100, 8)), ProbeOptions{})
	nl := g.Netlist()
	if len(nl.Nodes) != 13 || len(nl.Edges) != 14 {
		t.Fatalf("probe netlist has %d tiles and %d edges, want 13 and 14", len(nl.Nodes), len(nl.Edges))
	}
	p, err := fabric.Place(nl, fabric.GorgonGrid)
	if err != nil {
		t.Fatal(err)
	}
	_, mean, err := p.WireStats(nl)
	if err != nil {
		t.Fatal(err)
	}
	meanLatency := 1 + mean
	if meanLatency < float64(fabric.LinkLatency)-1 || meanLatency > float64(fabric.LinkLatency)+2 {
		t.Errorf("probe kernel mean placed latency %.1f; kernels assume %d", meanLatency, fabric.LinkLatency)
	}
}
