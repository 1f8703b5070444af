package blueprint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aurochs/internal/analysis/flow"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// TestAllBlueprintsProveClean is the acceptance gate for the static
// provers: every registered kernel topology must pass Graph.Check and
// come out of Graph.ProveWith(RequireSchemas) with zero warnings —
// line rate proven on every link, credit sufficiency, deadlock freedom
// and drain on every cycle, every
// link schema-typed at both ends, and every stateful effect classified
// reorder-safe (or carrying an explicit waiver, which the test reports).
// A regression here means a shipped graph acquired a flow-control hazard,
// lost schema coverage, or picked up an unclassified order-dependent RMW.
func TestAllBlueprintsProveClean(t *testing.T) {
	bps := All()
	if len(bps) == 0 {
		t.Fatal("empty blueprint registry")
	}
	seen := map[string]bool{}
	for _, bp := range bps {
		bp := bp
		t.Run(bp.Name, func(t *testing.T) {
			if seen[bp.Name] {
				t.Fatalf("duplicate blueprint name %q", bp.Name)
			}
			seen[bp.Name] = true
			g, err := bp.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := g.ProveWith(fabric.ProveOptions{RequireSchemas: true})
			if err != nil {
				t.Fatalf("prove: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("prover warnings:\n%s", rep)
			}
			if len(rep.Proofs) == 0 {
				t.Fatal("no proofs emitted")
			}
			if rep.Flow == nil || !rep.Flow.DeadlockFree() || len(rep.Flow.Warnings) != 0 {
				t.Fatalf("flow prover did not fully prove the topology:\n%v", rep.Flow)
			}
			if rep.Flow.Occupancy.Total <= 0 {
				t.Fatalf("no occupancy bound: %+v", rep.Flow.Occupancy)
			}
			lineRate, credit := 0, 0
			for _, p := range rep.Proofs {
				if strings.HasPrefix(p.Property, "sustains full line rate") {
					lineRate++
				}
				if strings.HasPrefix(p.Property, "credit-sufficient") {
					credit++
				}
			}
			if lineRate != len(g.Sys.Links()) || credit != len(rep.Flow.Occupancy.Cycles) {
				t.Fatalf("%d line-rate proofs for %d links, %d credit proofs for %d cycles:\n%s",
					lineRate, len(g.Sys.Links()), credit, len(rep.Flow.Occupancy.Cycles), rep)
			}
			for _, w := range rep.Waived {
				t.Logf("waived: %s", w.Msg)
			}
		})
	}
}

// TestBlueprintBuildsAreIndependent: Build must wire a fresh graph each
// call — tooling builds repeatedly (vet, tests, future bench harnesses).
func TestBlueprintBuildsAreIndependent(t *testing.T) {
	for _, bp := range All() {
		g1, err1 := bp.Build()
		g2, err2 := bp.Build()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: build errors %v / %v", bp.Name, err1, err2)
		}
		if g1 == g2 {
			t.Fatalf("%s: Build returned the same graph twice", bp.Name)
		}
	}
}

// TestBlueprintStagePlans: every registered topology condenses into a
// deterministic stage order — the SCC condensation Graph.Check and the
// token-flow prover walk. Each component lands in exactly one stage, every
// link points from a stage to the same or a lower-numbered one (reverse
// topological order), and rebuilding the blueprint reproduces the identical
// assignment (the condensation never consults map iteration order). The
// -v output reports each topology's stage count and largest stage.
func TestBlueprintStagePlans(t *testing.T) {
	for _, bp := range All() {
		bp := bp
		t.Run(bp.Name, func(t *testing.T) {
			stages := func() ([]int32, int, *flow.Net) {
				g, err := bp.Build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				net := g.FlowNet()
				adj := make([][]int32, len(net.Nodes))
				for _, e := range net.Edges {
					adj[e.From] = append(adj[e.From], int32(e.To))
				}
				of, count := sim.StronglyConnected(adj)
				return of, count, net
			}
			of, count, net := stages()
			comps := len(net.Nodes)
			if comps == 0 || count < 1 || count > comps {
				t.Fatalf("degenerate condensation: %d stages for %d components", count, comps)
			}
			if len(of) != comps {
				t.Fatalf("condensation covers %d of %d components", len(of), comps)
			}
			size := make([]int, count)
			for i, c := range of {
				if c < 0 || int(c) >= count {
					t.Fatalf("component %s in stage %d of %d", net.Nodes[i].Name, c, count)
				}
				size[c]++
			}
			for _, e := range net.Edges {
				if of[e.From] < of[e.To] {
					t.Fatalf("link %s runs from stage %d up to stage %d", e.Name, of[e.From], of[e.To])
				}
			}
			of2, count2, _ := stages()
			if count2 != count || len(of2) != len(of) {
				t.Fatalf("rebuild changed the stage count: %d vs %d", count, count2)
			}
			for i := range of {
				if of[i] != of2[i] {
					t.Fatalf("rebuild moved component %s from stage %d to %d", net.Nodes[i].Name, of[i], of2[i])
				}
			}
			largest := 0
			for _, n := range size {
				largest = max(largest, n)
			}
			t.Logf("%s: %d comps, %d stages, largest %d", bp.Name, comps, count, largest)
		})
	}
}

// TestFixturesExerciseTheFlowProver is the fixture registry's contract:
// a wedging fixture must be rejected by the token-flow prover AND its
// witness must reproduce the predicted failure on the real simulator; a
// clean fixture must prove deadlock-free and then actually drain at the
// occupancy bound's record count.
func TestFixturesExerciseTheFlowProver(t *testing.T) {
	fxs := Fixtures()
	if len(fxs) == 0 {
		t.Fatal("empty fixture registry")
	}
	for _, fx := range fxs {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			g, err := fx.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep := g.ProveFlow()
			if !fx.Wedges {
				if !rep.DeadlockFree() || len(rep.Warnings) != 0 {
					t.Fatalf("clean fixture rejected:\n%s", rep)
				}
				n := rep.Occupancy.Total + 2*record.NumLanes
				g2, err := fx.BuildN(n)
				if err != nil {
					t.Fatalf("build(%d): %v", n, err)
				}
				if _, err := g2.Run(int64(400 * n)); err != nil {
					t.Fatalf("clean fixture wedged with %d records: %v", n, err)
				}
				return
			}
			ws := rep.Witnesses()
			if len(ws) == 0 {
				t.Fatalf("wedging fixture produced no witness:\n%s", rep)
			}
			w := ws[0]
			n := w.Inject
			if n < 8 {
				n = 8
			}
			g2, err := fx.BuildN(n)
			if err != nil {
				t.Fatalf("build(%d): %v", n, err)
			}
			if err := fabric.ReplayWitness(g2, w); err != nil {
				t.Fatalf("witness did not reproduce: %v", err)
			}
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestOccupancyGolden pins every registered blueprint's static occupancy
// bound — the token-flow prover's per-link, per-cycle, and node-resident
// in-flight limits. A diff here means a topology change moved a shipped
// kernel's memory ceiling; review it, then regenerate with:
// go test ./internal/blueprint -run TestOccupancyGolden -update
func TestOccupancyGolden(t *testing.T) {
	type entry struct {
		Name      string         `json:"name"`
		Occupancy flow.Occupancy `json:"occupancy"`
	}
	var out []entry
	for _, bp := range All() {
		g, err := bp.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", bp.Name, err)
		}
		rep, err := g.Prove()
		if err != nil {
			t.Fatalf("%s: prove: %v", bp.Name, err)
		}
		out = append(out, entry{Name: bp.Name, Occupancy: rep.Flow.Occupancy})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "occupancy.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("occupancy bounds drifted from golden file %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}
