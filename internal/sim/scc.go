package sim

// StronglyConnected runs an iterative Tarjan SCC over adj: the fabric's
// structural checker and the token-flow prover (internal/analysis/flow)
// both condense link graphs with it. Deterministic: roots are tried in
// ascending index order, edges in list order, and components are numbered
// in Tarjan emission order, which is a reverse topological order of the
// condensation (every edge of the condensed DAG points from a
// higher-numbered component to a lower-numbered one).
//
// The return is the component index per node and the component count.
func StronglyConnected(adj [][]int32) ([]int32, int) {
	n := len(adj)
	const unvisited = int32(-1)
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32   // Tarjan's SCC stack
	type frame struct { // explicit DFS stack (graphs can be deep chains)
		v  int32
		ei int
	}
	var frames []frame
	next := int32(0)
	count := 0

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished: pop an SCC if v is a root, then propagate low.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, count
}
