package core

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// Symmetric stream hash join (paper §III-A / §IV-A, "low-latency stream
// joins"): two live streams each maintain a hash table, and every window
// each stream inserts its new records into its own table while probing the
// other stream's table. All four pipelines — two builds, two probes — run
// in ONE graph against shared memories: the lock-free CAS-prepend chains
// keep every bucket consistent for concurrent readers and writers, so a
// probe threading a chain mid-window sees a complete prefix of the other
// stream's inserts. The loop topology of every pipeline is registered in
// internal/blueprint and proven deadlock-free by the token-flow prover
// (internal/analysis/flow) in CI.

// SymmetricJoin holds the two live tables of a symmetric stream join. Req
// indexes the request stream's records, Drv the driver stream's; a window
// inserts each side into its own table and probes the opposite one.
type SymmetricJoin struct {
	Req *HashTable
	Drv *HashTable
}

// NewSymmetricJoin allocates both tables with identical geometry on one
// shared HBM (nil allocates a default instance). The overflow regions are
// disjoint: Drv's overflow buffer is placed directly above Req's.
func NewSymmetricJoin(p HashTableParams, hbm *dram.HBM) (*SymmetricJoin, error) {
	if hbm == nil {
		hbm = defaultHBM()
	}
	req, err := NewHashTable(p, hbm)
	if err != nil {
		return nil, err
	}
	pd := p
	if pd.MaxNodes > pd.SpadNodes {
		pd.OverflowBase = p.OverflowBase + (p.MaxNodes-p.SpadNodes)*p.nodeWords()
	}
	drv, err := NewHashTable(pd, hbm)
	if err != nil {
		return nil, err
	}
	return &SymmetricJoin{Req: req, Drv: drv}, nil
}

// WindowSinks are the four pipeline endpoints of one join window.
type WindowSinks struct {
	// ReqIns / DrvIns count completed insertions on each side.
	ReqIns *fabric.Sink
	DrvIns *fabric.Sink
	// ReqMatch collects [key, reqTag, drvVal] matches of the request
	// stream probing the driver table; DrvMatch the converse.
	ReqMatch *fabric.Sink
	DrvMatch *fabric.Sink
}

// WindowInto wires one window's four pipelines into g under the name
// prefix: both sides' inserts and both cross-probes, sharing the graph and
// its HBM. Records are [key, payload] on both sides. The caller runs the
// graph; sink counts validate completion (see Window).
func (j *SymmetricJoin) WindowInto(g *fabric.Graph, pf string, reqs, drvs StreamIn, opt ProbeOptions) (WindowSinks, error) {
	if uint32(reqs.N)+j.Req.Inserted > j.Req.Params.MaxNodes {
		return WindowSinks{}, fmt.Errorf("core: window would exceed request-table MaxNodes=%d", j.Req.Params.MaxNodes)
	}
	if uint32(drvs.N)+j.Drv.Inserted > j.Drv.Params.MaxNodes {
		return WindowSinks{}, fmt.Errorf("core: window would exceed driver-table MaxNodes=%d", j.Drv.Params.MaxNodes)
	}
	return WindowSinks{
		ReqIns:   buildPipeline(g, pf+".reqIns", j.Req, reqs),
		DrvIns:   buildPipeline(g, pf+".drvIns", j.Drv, drvs),
		ReqMatch: ProbeHashTableInto(g, pf+".reqPrb", j.Drv, reqs, opt),
		DrvMatch: ProbeHashTableInto(g, pf+".drvPrb", j.Req, drvs, opt),
	}, nil
}

// Window runs one micro-batch of the symmetric join: insert reqs and drvs
// into their tables and cross-probe, all concurrently in one graph run.
// Matches against records inserted in the same window are best-effort —
// a probe may walk a chain before the other side's insert lands — which
// is the streaming semantics: the next window's probes see them all.
func (j *SymmetricJoin) Window(reqs, drvs []record.Rec, opt ProbeOptions) (reqMatches, drvMatches []record.Rec, res Result, err error) {
	g := fabric.NewGraph()
	g.AttachHBM(j.Req.HBM)
	sinks, err := j.WindowInto(g, "win", InRecs(reqs), InRecs(drvs), opt)
	if err != nil {
		return nil, nil, Result{}, err
	}
	res, err = runGraph(g, budgetFor(len(reqs)+len(drvs)))
	if err != nil {
		return nil, nil, res, fmt.Errorf("stream join window: %w", err)
	}
	if got, want := sinks.ReqIns.Count(), len(reqs); got != want {
		return nil, nil, res, fmt.Errorf("stream join window: %d of %d request inserts completed", got, want)
	}
	if got, want := sinks.DrvIns.Count(), len(drvs); got != want {
		return nil, nil, res, fmt.Errorf("stream join window: %d of %d driver inserts completed", got, want)
	}
	return sinks.ReqMatch.Records(), sinks.DrvMatch.Records(), res, nil
}
