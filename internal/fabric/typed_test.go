package fabric

import (
	"strings"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// pipe wires src -> snk over one link and returns the graph plus both ends,
// so each schema test can type the ends differently.
func pipe() (*Graph, *Source, *Sink) {
	g := NewGraph()
	l := g.Link("l")
	src := NewSource("src", oneRec, l)
	snk := NewSink("snk", l)
	g.Add(src)
	g.Add(snk)
	return g, src, snk
}

// TestCheckSchemaMismatch: a producer that guarantees less than the
// consumer requires is a hard Check error (acceptance: seeded schema
// mismatches must be rejected, not warned about).
func TestCheckSchemaMismatch(t *testing.T) {
	cases := []struct {
		name     string
		prod     *record.Schema
		cons     *record.Schema
		mismatch bool
	}{
		{"identical", record.NewSchema("k", "v"), record.NewSchema("k", "v"), false},
		{"wide to narrow prefix", record.NewSchema("k", "v", "x"), record.NewSchema("k", "v"), false},
		{"narrow to wide", record.NewSchema("k"), record.NewSchema("k", "v"), true},
		{"renamed field", record.NewSchema("k", "v"), record.NewSchema("k", "w"), true},
		{"reordered fields", record.NewSchema("v", "k"), record.NewSchema("k", "v"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, src, snk := pipe()
			src.Typed(tc.prod)
			snk.Typed(tc.cons)
			err := g.Check()
			if !tc.mismatch {
				if err != nil {
					t.Fatalf("compatible schemas rejected: %v", err)
				}
				return
			}
			ce, ok := err.(*CheckError)
			if !ok || !ce.Has(DiagSchemaMismatch) {
				t.Fatalf("want %s, got %v", DiagSchemaMismatch, err)
			}
			if !strings.Contains(err.Error(), "src") || !strings.Contains(err.Error(), "snk") {
				t.Errorf("diagnostic does not name both endpoints:\n%v", err)
			}
		})
	}
}

// TestCheckSchemaOneSideUntyped: typing only one end of a link is allowed —
// Check stays silent (gradual typing); only ProveWith(RequireSchemas)
// complains.
func TestCheckSchemaOneSideUntyped(t *testing.T) {
	g, src, _ := pipe()
	src.Typed(record.NewSchema("k"))
	if err := g.Check(); err != nil {
		t.Fatalf("half-typed link rejected by Check: %v", err)
	}
}

// TestProveRequireSchemasWarnsUntyped: strict proving flags every link that
// is not schema-checked end to end, naming the untyped side.
func TestProveRequireSchemasWarnsUntyped(t *testing.T) {
	g, src, _ := pipe()
	src.Typed(record.NewSchema("k"))

	rep, err := g.Prove() // default mode: untyped links are fine
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("default prove warned on a half-typed link:\n%s", rep)
	}

	rep, err = g.ProveWith(ProveOptions{RequireSchemas: true})
	if err != nil {
		t.Fatalf("prove strict: %v", err)
	}
	if rep.Clean() {
		t.Fatal("RequireSchemas accepted a half-typed link")
	}
	found := false
	for _, w := range rep.Warnings {
		if w.Code == DiagUntypedLink && strings.Contains(w.Msg, "snk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s warning naming the untyped consumer:\n%s", DiagUntypedLink, rep)
	}
}

// TestProveSchemaFacts: a fully typed link yields a positive
// schema-compatible proof in the report.
func TestProveSchemaFacts(t *testing.T) {
	g, src, snk := pipe()
	s := record.NewSchema("k", "v")
	src.Typed(s)
	snk.Typed(s)
	rep, err := g.ProveWith(ProveOptions{RequireSchemas: true})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("typed pipe not clean:\n%s", rep)
	}
	found := false
	for _, p := range rep.Proofs {
		if strings.Contains(p.Property, "schema-compatible") && strings.Contains(p.Property, "k, v") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no schema-compatible proof:\n%s", rep)
	}
}

// TestWidenOverflowIsCheckDefect: widening past record.MaxFields is
// recorded as a graph defect (DiagSchemaWidth) instead of panicking at
// wiring time — the kernel author sees it with every other diagnostic.
func TestWidenOverflowIsCheckDefect(t *testing.T) {
	g, src, snk := pipe()
	names := make([]string, record.MaxFields)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	full := record.NewSchema(names...)
	wider := g.Widen(full, "overflow")
	if wider != full {
		t.Fatal("overflowing Widen must fall back to the original schema")
	}
	src.Typed(full)
	snk.Typed(full)
	err := g.Check()
	ce, ok := err.(*CheckError)
	if !ok || !ce.Has(DiagSchemaWidth) {
		t.Fatalf("want %s, got %v", DiagSchemaWidth, err)
	}
}

// badPorts declares a schema list that is not parallel to its link list.
type badPorts struct {
	in, out *sim.Link
}

func (b *badPorts) Name() string                    { return "bad" }
func (b *badPorts) Tick(int64)                      {}
func (b *badPorts) Done() bool                      { return true }
func (b *badPorts) InputLinks() []*sim.Link         { return []*sim.Link{b.in} }
func (b *badPorts) OutputLinks() []*sim.Link        { return []*sim.Link{b.out} }
func (b *badPorts) OutputSchemas() []*record.Schema { return nil }
func (b *badPorts) InputSchemas() []*record.Schema {
	return []*record.Schema{record.NewSchema("k"), record.NewSchema("v")} // 2 schemas, 1 link
}

// TestCheckSchemaPortsParity: a TypedPorts implementation whose schema list
// does not parallel its link list is itself defective.
func TestCheckSchemaPortsParity(t *testing.T) {
	g := NewGraph()
	l, o := g.Link("l"), g.Link("o")
	g.Add(NewSource("src", oneRec, l))
	g.Add(&badPorts{in: l, out: o})
	g.Add(NewSink("snk", o))
	err := g.Check()
	ce, ok := err.(*CheckError)
	if !ok || !ce.Has(DiagSchemaPorts) {
		t.Fatalf("want %s, got %v", DiagSchemaPorts, err)
	}
}

// orderGraph wires src -> DRAMNode(spec) -> snk for reorder-contract tests.
func orderGraph(spec spad.Spec) *Graph {
	g := NewGraph()
	g.AttachHBM(dram.New(dram.DefaultConfig()))
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", oneRec, in))
	NewDRAMNode(g, "rmw", spec, in, out)
	g.Add(NewSink("snk", out))
	return g
}

func plainWrite() spad.Spec {
	return spad.Spec{
		Op:    spad.OpWrite,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Data:  func(r *record.Rec, _ int) uint32 { return r.Get(0) },
	}
}

// tileGraph wires src -> scratchpad tile(spec) -> snk: the tile covers
// every op, XCHG included, which the DRAM node does not implement.
func tileGraph(spec spad.Spec) *Graph {
	g := NewGraph()
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", oneRec, in))
	g.Add(spad.NewTile(spad.DefaultConfig("rmw"), spad.NewMem(16, 16, 1), spec, in, out, g.Stats()))
	g.Add(NewSink("snk", out))
	return g
}

// TestCheckOrderDependent: on the DRAM node, an unwaived order-dependent
// RMW behind a reordering node is a hard Check error; DisjointAddrs or an
// explicit waiver clears it, and the waiver surfaces in the proof report.
func TestCheckOrderDependent(t *testing.T) {
	// Seeded defect: last-write-wins scatter with no disjointness claim.
	err := orderGraph(plainWrite()).Check()
	ce, ok := err.(*CheckError)
	if !ok || !ce.Has(DiagOrderDependent) {
		t.Fatalf("want %s, got %v", DiagOrderDependent, err)
	}
	if !strings.Contains(err.Error(), `"rmw"`) {
		t.Errorf("diagnostic does not name the node:\n%v", err)
	}

	// Disjoint addresses lift the write to commutative.
	disjoint := plainWrite()
	disjoint.DisjointAddrs = true
	if err := orderGraph(disjoint).Check(); err != nil {
		t.Fatalf("disjoint write rejected: %v", err)
	}

	// An explicit waiver passes Check but surfaces in the proof report.
	waived := plainWrite()
	waived.OrderWaiver = "test: single writer"
	checkReorderSafe(t, orderGraph(waived), "single writer")
}

// orderAddr and orderData key every test RMW on the record's first word.
func orderAddr(r *record.Rec) uint32        { return r.Get(0) }
func orderData(r *record.Rec, _ int) uint32 { return r.Get(0) }

// checkReorderSafe asserts that g passes Check, proves clean, and reports
// exactly one waived effect naming waiver, or none when waiver is empty.
func checkReorderSafe(t *testing.T, g *Graph, waiver string) {
	t.Helper()
	if err := g.Check(); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	rep, err := g.Prove()
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("not clean:\n%s", rep)
	}
	switch {
	case waiver == "" && len(rep.Waived) != 0:
		t.Fatalf("unwaived effect reported as waived:\n%s", rep)
	case waiver != "" && (len(rep.Waived) != 1 || !strings.Contains(rep.Waived[0].Msg, waiver)):
		t.Fatalf("waiver not surfaced in report:\n%s", rep)
	}
}

// TestCheckRejectsUnjustifiedOrder pins the reorder-safety gate's
// rejections on a scratchpad tile: every order-dependent effect that
// carries no justification is a hard Check error naming the node.
func TestCheckRejectsUnjustifiedOrder(t *testing.T) {
	cases := []struct {
		name string
		spec spad.Spec
	}{
		{"bare write", plainWrite()},
		{"raw modify", spad.Spec{Op: spad.OpModify, Addr: orderAddr,
			Modify: func(cur uint32, r *record.Rec) uint32 { return cur*31 + r.Get(0) }}},
		{"bare cas", spad.Spec{Op: spad.OpCAS, Addr: orderAddr, Data: orderData}},
		{"xchg with empty waiver", spad.Spec{Op: spad.OpXCHG, Addr: orderAddr, Data: orderData, OrderWaiver: ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tileGraph(tc.spec).Check()
			ce, ok := err.(*CheckError)
			if !ok || !ce.Has(DiagOrderDependent) {
				t.Fatalf("want %s, got %v", DiagOrderDependent, err)
			}
			if !strings.Contains(err.Error(), `"rmw"`) {
				t.Errorf("diagnostic does not name the node:\n%v", err)
			}
		})
	}
}

// TestCheckAcceptsReorderSafe pins the gate's sanctioned escapes on a
// scratchpad tile: pure and commutative ops, disjoint addresses, each
// shipped combiner and a non-empty waiver pass Check and prove clean; only
// the waived effect surfaces in ProofReport.Waived.
func TestCheckAcceptsReorderSafe(t *testing.T) {
	modify := func(c *spad.CombineFn) spad.Spec {
		return spad.Spec{Op: spad.OpModify, Addr: orderAddr, Data: orderData, Combiner: c}
	}
	disjoint := plainWrite()
	disjoint.DisjointAddrs = true
	cases := []struct {
		name   string
		spec   spad.Spec
		waiver string // non-empty: accepted on this waiver
	}{
		{name: "read", spec: spad.Spec{Op: spad.OpRead, Width: 2, Addr: orderAddr}},
		{name: "faa", spec: spad.Spec{Op: spad.OpFAA, Addr: orderAddr, Data: orderData}},
		{name: "disjoint write", spec: disjoint},
		{name: "combine add", spec: modify(spad.CombineAdd)},
		{name: "combine min", spec: modify(spad.CombineMin)},
		{name: "combine max", spec: modify(spad.CombineMax)},
		{name: "combine or", spec: modify(spad.CombineOr)},
		{name: "waived cas", waiver: "test: retry loop converges",
			spec: spad.Spec{Op: spad.OpCAS, Addr: orderAddr, Data: orderData, OrderWaiver: "test: retry loop converges"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkReorderSafe(t, tileGraph(tc.spec), tc.waiver)
		})
	}
}

// TestProveReorderFacts: commutative and pure effects come out of Prove
// with positive reorder-safety facts.
func TestProveReorderFacts(t *testing.T) {
	faa := spad.Spec{
		Op:   spad.OpFAA,
		Addr: func(r *record.Rec) uint32 { return 0 },
		Data: func(*record.Rec, int) uint32 { return 1 },
	}
	rep, err := orderGraph(faa).Prove()
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	found := false
	for _, p := range rep.Proofs {
		if strings.Contains(p.Property, "reorder-safe") && strings.Contains(p.Property, "commutative") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reorder-safe proof for FAA:\n%s", rep)
	}
}

// TestTileReorderContract: a spad tile carries its Spec's classification
// through sim.ReorderSemantics, and InOrder tiles never claim to reorder.
func TestTileReorderContract(t *testing.T) {
	mem := spad.NewMem(16, 16, 1)
	spec := spad.Spec{
		Op:   spad.OpFAA,
		Addr: func(r *record.Rec) uint32 { return 0 },
		Data: func(*record.Rec, int) uint32 { return 1 },
	}
	cfg := spad.DefaultConfig("t")
	tile := spad.NewTile(cfg, mem, spec, nil, nil, sim.NewStats())
	decl := tile.Reordering()
	if decl.Class != sim.ReorderCommutative || !decl.Reorders {
		t.Fatalf("default tile decl = %+v, want commutative+reorders", decl)
	}
	cfg.InOrder = true
	inorder := spad.NewTile(cfg, mem, spec, nil, nil, sim.NewStats())
	if d := inorder.Reordering(); d.Reorders {
		t.Fatalf("in-order tile claims to reorder: %+v", d)
	}
}
