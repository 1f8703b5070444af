package fabric

import (
	"aurochs/internal/analysis/flow"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// FlowNet lowers the wired graph into the token-flow prover's abstract net
// (internal/analysis/flow): one node per component with its conservation
// class, loop-control identity, and internal-buffer bound; one edge per
// link with exactly one producer and one consumer (multi-ended links are
// Check errors and carry no flow semantics). The lowering is deterministic
// — components in registration order, links in creation order — so
// witnesses and occupancy reports are stable across runs.
func (g *Graph) FlowNet() *flow.Net {
	comps, ends, _ := g.attribute()
	net := &flow.Net{Lanes: record.NumLanes}

	// Loop controls get dense ids in first-encounter order over the
	// registered components.
	ctls := make(map[*LoopCtl]int)
	ctlID := func(c *LoopCtl) int {
		if c == nil {
			return -1
		}
		id, ok := ctls[c]
		if !ok {
			id = len(ctls)
			ctls[c] = id
		}
		return id
	}

	compIx := make(map[sim.Component]int, len(comps))
	for i, c := range comps {
		compIx[c] = i
	}
	skip := make([]bool, len(comps))

	for i, c := range comps {
		nd := flow.Node{Name: c.Name(), Ctl: -1, Pri: -1, Sec: -1, Supply: -1}
		switch v := c.(type) {
		case *Source:
			nd.Kind = flow.SourceKind
			nd.Supply = len(v.recs)
		case *DRAMScan:
			nd.Kind = flow.SourceKind
			if v.recWords > 0 {
				nd.Supply = 0
				for _, e := range v.extents {
					nd.Supply += e.Words / v.recWords
				}
			}
		case *Sink:
			nd.Kind = flow.SinkKind
		case *DRAMAppend:
			nd.Kind = flow.SinkKind
			nd.Resident = record.NumLanes
		case *Map:
			nd.Kind = flow.Transform
			nd.Resident = (PipelineDepth + 2) * record.NumLanes
		case *Filter:
			nd.Kind = flow.FilterKind
			nd.Ctl = ctlID(v.ctl)
			// Route may return -1; with a loop control those kills are
			// counted exits (drainPipe calls ctl.Exit). Without one the
			// wiring discipline is that the route never kills — see the
			// trust policy in DESIGN.md §12.
			nd.CanKill = v.ctl != nil
			nd.Resident = (PipelineDepth+2)*record.NumLanes + len(v.outs)*3*record.NumLanes
		case *Merge:
			nd.Kind = flow.MergeKind
			nd.LoopEntry = v.ctl != nil
			nd.Ctl = ctlID(v.ctl)
			nd.Resident = 2*record.NumLanes - 1
		case *Fork:
			nd.Kind = flow.ForkKind
			nd.Amplify = true
			nd.Ctl = ctlID(v.ctl)
			nd.CanKill = v.ctl != nil
			nd.Resident = 4 * record.NumLanes
		case *DRAMExpand:
			nd.Kind = flow.ForkKind
			nd.Amplify = true
			nd.Ctl = ctlID(v.ctl)
			nd.CanKill = v.ctl != nil
			nd.Resident = v.maxOutstanding + 4*record.NumLanes
		case *DRAMNode:
			nd.Kind = flow.Transform
			nd.Lossy = v.spec.Lossy
			nd.LossyWaiver = v.spec.LossyWaiver
			nd.Resident = v.maxOutstanding + 4*record.NumLanes
		case *spad.Tile:
			nd.Kind = flow.Transform
			nd.Lossy, nd.LossyWaiver = v.LossyDecl()
			nd.Resident = v.ResidentBound()
		case *SpillQueue:
			nd.Kind = flow.Transform
			nd.Elastic = true
			nd.Resident = v.onchip
		case *OrderedMerge:
			nd.Kind = flow.Transform
			nd.Resident = 2 * record.NumLanes * len(v.ins)
		case *MergeJoin:
			// A join emits one record per key match: more output than input
			// when keys repeat on both sides.
			nd.Kind = flow.Transform
			nd.Amplify = true
			nd.Resident = 6 * record.NumLanes
		case *hbmComponent:
			skip[i] = true // passive clock; no record ports
		default:
			nd.Kind = flow.Opaque
		}
		net.Nodes = append(net.Nodes, nd)
	}

	// One edge per single-producer/single-consumer link, in link creation
	// order; remember each link's edge id for port annotation.
	edgeOf := make(map[*sim.Link]int)
	for _, l := range g.Sys.Links() {
		e := ends[l]
		if e == nil || len(e.producers) != 1 || len(e.consumers) != 1 {
			continue
		}
		p, c := e.producers[0], e.consumers[0]
		if skip[p] || skip[c] {
			continue
		}
		edgeOf[l] = len(net.Edges)
		net.Edges = append(net.Edges, flow.Edge{
			Name: l.Name(), From: p, To: c,
			Cap: l.Capacity(), Lat: l.Latency(),
		})
	}
	edgeFor := func(l *sim.Link) int {
		if l == nil {
			return -1
		}
		if ei, ok := edgeOf[l]; ok {
			return ei
		}
		return -1
	}

	for i, c := range comps {
		if skip[i] {
			continue
		}
		nd := &net.Nodes[i]
		switch v := c.(type) {
		case *Filter:
			// Per-output ports preserve the Exit declarations; a nil link is
			// a kill port.
			for _, o := range v.outs {
				nd.Out = append(nd.Out, flow.Port{Edge: edgeFor(o.Link), Exit: o.Exit})
			}
		case *Merge:
			nd.Pri, nd.Sec = edgeFor(v.pri), edgeFor(v.sec)
			if ei := edgeFor(v.out); ei >= 0 {
				nd.Out = append(nd.Out, flow.Port{Edge: ei})
			}
		default:
			if op, ok := c.(sim.OutputPorts); ok {
				claimed := make(map[*sim.Link]bool)
				for _, l := range op.OutputLinks() {
					if ei := edgeFor(l); ei >= 0 && !claimed[l] {
						claimed[l] = true
						nd.Out = append(nd.Out, flow.Port{Edge: ei})
					}
				}
			}
		}
		if ip, ok := c.(sim.InputPorts); ok {
			claimed := make(map[*sim.Link]bool)
			for _, l := range ip.InputLinks() {
				if ei := edgeFor(l); ei >= 0 && !claimed[l] {
					claimed[l] = true
					nd.In = append(nd.In, flow.Port{Edge: ei})
				}
			}
		}
	}
	return net
}

// ProveFlow runs the token-flow prover over the wired graph. Unlike
// ProveWith it does not require Check to pass first: the prover is
// deliberately total, so Check-rejected shapes (a swapped LoopMerge, an
// uncounted side entrance) still get their findings and witnesses — that
// is what lets the replay harness drive them differentially.
func (g *Graph) ProveFlow() *flow.Report {
	return flow.Prove(g.FlowNet())
}
