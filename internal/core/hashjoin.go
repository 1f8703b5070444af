package core

import (
	"fmt"
	"iter"
	"slices"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// HashJoinOptions configures the composed equi-join (paper §IV-A).
type HashJoinOptions struct {
	// Parts is the total partition count (power of two). Zero sizes it so
	// the expected partition fits the node scratchpad.
	Parts uint32
	// Pipelines is the stream-level parallelism P: how many partition /
	// build / probe pipelines run concurrently on the fabric, sharing the
	// HBM (fig. 12's knob). It must be a power of two; zero means one.
	Pipelines int
	// FirstMatchOnly selects semi-join semantics.
	FirstMatchOnly bool
	// Tuning carries the ablation knobs.
	Tuning Tuning
}

func (o *HashJoinOptions) fill(n int) {
	if o.Pipelines == 0 {
		o.Pipelines = 1
	}
	if o.Parts == 0 {
		spadRecs := 16384 // ~expected partition that fits the node scratchpad
		parts := uint32(1)
		for int(parts)*spadRecs < n {
			parts <<= 1
		}
		o.Parts = parts
	}
	if o.Parts < uint32(o.Pipelines) {
		o.Parts = uint32(o.Pipelines)
	}
}

// HashJoin runs the full two-phase partitioned hash join on the fabric:
// radix-partition both tables to DRAM on their hash keys (P parallel
// fig. 7b pipelines), then for each partition pair build an on-chip hash
// table from the build side and probe it with the probe side (figs. 6a,
// 7a). Inputs are [key, val] records; matches are [key, probeVal,
// buildVal]. The returned Result sums all phases.
func HashJoin(hbm *dram.HBM, buildSide, probeSide []record.Rec, opt HashJoinOptions) ([]record.Rec, Result, error) {
	m, res, err := HashJoinIn(hbm, InRecs(buildSide), InRecs(probeSide), opt)
	if err != nil {
		return nil, res, err
	}
	return m.Records(), res, nil
}

// HashJoinIn is HashJoin over generator inputs (InFunc or InRecs), and it
// leaves the matches in the probe sinks that stored them, listed in
// HashJoin's result order: a caller whose rows are smaller than a record,
// such as 8-byte key/value pairs, builds each [key, val] record as it
// streams instead of materialising both sides, and reads the matches
// straight out of the sinks (Matches.All) instead of out of a copy. Each
// generator is called several times per row (the splitter reads the key
// before the partition pass streams the row), so it must be a pure
// function of the index.
func HashJoinIn(hbm *dram.HBM, buildSide, probeSide StreamIn, opt HashJoinOptions) (Matches, Result, error) {
	if buildSide.Gen == nil || probeSide.Gen == nil {
		return nil, Result{}, fmt.Errorf("core: hash join inputs must be generators, not DRAM extents")
	}
	if hbm == nil {
		hbm = defaultHBM()
	}
	opt.fill(buildSide.N)
	P := opt.Pipelines
	// The splitter routes on the low hash bits, so only a power of two
	// keeps every pipeline busy.
	if P < 1 || P&(P-1) != 0 {
		return nil, Result{}, fmt.Errorf("core: pipelines must be a positive power of two, got %d", P)
	}
	partsPer := opt.Parts / uint32(P)
	var total Result

	// --- Phase 1: radix-partition both sides, P pipelines each ---
	// The splitter network routes records to pipelines on the low hash
	// bits; each pipeline then partitions on the next bits.
	shift := uint(0)
	for v := 1; v < P; v <<= 1 {
		shift++
	}
	// split returns each pipeline's row indices into the side, in input
	// order; each pipeline's source builds its records from them as it
	// streams, so neither side is copied.
	split := func(side StreamIn) [][]int32 {
		var r record.Rec
		pipe := func(i int) int {
			side.Gen(i, &r)
			return int(Hash32(r.Get(0)) & uint32(P-1))
		}
		counts := make([]int, P)
		for i := 0; i < side.N; i++ {
			counts[pipe(i)]++
		}
		out := make([][]int32, P)
		for k := range out {
			out[k] = make([]int32, 0, counts[k])
		}
		for i := 0; i < side.N; i++ {
			k := pipe(i)
			out[k] = append(out[k], int32(i))
		}
		return out
	}

	partitionSide := func(name string, side StreamIn, arenaOff uint32) ([]*PartitionSet, error) {
		g := fabric.NewGraph()
		g.AttachHBM(hbm)
		groups := split(side)
		sets := make([]*PartitionSet, P)
		sinks := make([]*fabric.Sink, P)
		// One uniform arena stride for all pipelines (sized for the whole
		// input): per-pipeline strides would differ with group sizes and
		// overlap, cross-linking block chains.
		proto := DefaultPartitionParams(side.N+P, partsPer, 2)
		arena := proto.MaxBlocks * (1 + proto.BlockRecs*proto.RecWords)
		for k := 0; k < P; k++ {
			pp := proto
			pp.HashShift = shift
			pp.Tuning = opt.Tuning
			pp.BlockBase = RegionPartBlocks + arenaOff + uint32(k)*arena
			idx := groups[k]
			in := InFunc(len(idx), func(i int, r *record.Rec) { side.Gen(int(idx[i]), r) })
			ps, snk, err := PartitionInto(g, fmt.Sprintf("prt.%s%d", name, k), pp, in)
			if err != nil {
				return nil, err
			}
			sets[k], sinks[k] = ps, snk
		}
		res, err := runGraph(g, budgetFor(side.N)*4)
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", name, err)
		}
		accumulate(&total, res)
		for k := 0; k < P; k++ {
			if sinks[k].Count() != len(groups[k]) {
				return nil, fmt.Errorf("partition %s pipeline %d: stored %d of %d", name, k, sinks[k].Count(), len(groups[k]))
			}
		}
		FinishPartition(sets...)
		return sets, nil
	}

	buildSets, err := partitionSide("b", buildSide, 0)
	if err != nil {
		return nil, total, err
	}
	probeSets, err := partitionSide("p", probeSide, 1<<26)
	if err != nil {
		return nil, total, err
	}

	// --- Phase 2: per partition pair, build then probe; P pairs at a
	// time share the fabric ---
	found := make(Matches, 0, int(partsPer)*P)
	for r := uint32(0); r < partsPer; r++ {
		// Build round.
		gb := fabric.NewGraph()
		gb.AttachHBM(hbm)
		tables := make([]*HashTable, P)
		bsinks := make([]*fabric.Sink, P)
		counts := make([]int, P)
		for k := 0; k < P; k++ {
			ext := buildSets[k].Extents(r)
			in := InExtents(ext, 2)
			counts[k] = in.N
			hp := DefaultHashTableParams(in.N + 1)
			hp.OverflowBase = RegionHashOverflow + uint32(k)*(1<<22)
			hp.Tuning = opt.Tuning
			ht, snk, err := BuildHashTableInto(gb, fmt.Sprintf("bld.%d", k), hp, in)
			if err != nil {
				return nil, total, err
			}
			tables[k], bsinks[k] = ht, snk
		}
		res, err := runGraph(gb, budgetFor(sumInts(counts))*4)
		if err != nil {
			return nil, total, fmt.Errorf("build round %d: %w", r, err)
		}
		accumulate(&total, res)
		for k := 0; k < P; k++ {
			if bsinks[k].Count() != counts[k] {
				return nil, total, fmt.Errorf("build round %d pipeline %d: %d of %d", r, k, bsinks[k].Count(), counts[k])
			}
		}

		// Probe round.
		gp := fabric.NewGraph()
		gp.AttachHBM(hbm)
		psinks := make([]*fabric.Sink, P)
		pn := 0
		for k := 0; k < P; k++ {
			ext := probeSets[k].Extents(r)
			in := InExtents(ext, 2)
			pn += in.N
			psinks[k] = ProbeHashTableInto(gp, fmt.Sprintf("prb.%d", k), tables[k], in,
				ProbeOptions{FirstMatchOnly: opt.FirstMatchOnly})
		}
		res, err = runGraph(gp, budgetFor(pn)*4)
		if err != nil {
			return nil, total, fmt.Errorf("probe round %d: %w", r, err)
		}
		accumulate(&total, res)
		found = append(found, psinks...)
	}
	return found, total, nil
}

// Matches is a kernel's result stream left where its sinks stored it, in
// result order. Callers that convert the records (to query-level pairs,
// say) read them once through All instead of through a Records copy.
type Matches []*fabric.Sink

// Len returns the number of matches.
func (m Matches) Len() int {
	n := 0
	for _, snk := range m {
		n += snk.Count()
	}
	return n
}

// All yields the matches in result order, each valid until the next
// iteration (see fabric.Sink.All).
func (m Matches) All() iter.Seq[*record.Rec] {
	return func(yield func(*record.Rec) bool) {
		for _, snk := range m {
			for r := range snk.All() {
				if !yield(r) {
					return
				}
			}
		}
	}
}

// Records copies the matches, in result order, into one slice sized from
// their count; nil when there are none.
func (m Matches) Records() []record.Rec {
	out := slices.Grow([]record.Rec(nil), m.Len())
	for _, snk := range m {
		out = snk.AppendTo(out)
	}
	return out
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
