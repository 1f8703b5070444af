package fabric

import (
	"fmt"
	"sort"

	"aurochs/internal/sim"
)

// Placement (paper §V-B): the paper lowers a SQL operator tree to a tile
// graph and uses "a custom place and route tool" to map tiles onto the
// 20×20 fabric, accounting for interconnect latency and bandwidth. This is
// the corresponding lite placer: a breadth-first linearization of the
// kernel netlist laid out along a serpentine scan of the grid, which keeps
// connected tiles adjacent. Link latency is 1 + the Manhattan distance
// between endpoint tiles.
//
// Kernels in this repository use the default LinkLatency (2 cycles ≈ one
// placed hop); a test in internal/core verifies the probe kernel's average
// placed distance matches that default. The threading model tolerates
// arbitrary on-chip latencies (paper §III-A), so placement perturbs
// throughput only at the margin — but the tool is here for anyone studying
// layout sensitivity.

// Netlist describes a kernel as named tiles and directed edges.
type Netlist struct {
	Nodes []string
	Edges [][2]string
}

// Netlist returns the wired graph's tile netlist: every component with
// ports, in registration order, and for each link in creation order one
// edge from each producer to each consumer. Port-less components (the HBM
// clock) are not tiles and are left out.
func (g *Graph) Netlist() Netlist {
	comps, ends, _ := g.attribute()
	var n Netlist
	for _, c := range comps {
		_, in := c.(sim.InputPorts)
		_, out := c.(sim.OutputPorts)
		if in || out {
			n.Nodes = append(n.Nodes, c.Name())
		}
	}
	for _, l := range g.Sys.Links() {
		if e := ends[l]; e != nil {
			for _, p := range e.producers {
				for _, c := range e.consumers {
					n.Edges = append(n.Edges, [2]string{comps[p].Name(), comps[c].Name()})
				}
			}
		}
	}
	return n
}

// Coord is a tile position on the fabric grid.
type Coord struct {
	X, Y int
}

// Placement is a computed layout.
type Placement struct {
	Grid  Coord // grid dimensions
	Coord map[string]Coord
}

// GorgonGrid is the fabric size of the paper's target: a 20×20 grid of
// compute and scratchpad tiles.
var GorgonGrid = Coord{X: 20, Y: 20}

// Place lays out the netlist on a grid. It returns an error when the
// netlist does not fit or references undeclared nodes.
func Place(n Netlist, grid Coord) (*Placement, error) {
	if len(n.Nodes) > grid.X*grid.Y {
		return nil, fmt.Errorf("fabric: %d tiles exceed a %dx%d grid", len(n.Nodes), grid.X, grid.Y)
	}
	declared := make(map[string]bool, len(n.Nodes))
	for _, name := range n.Nodes {
		if name == "" {
			return nil, fmt.Errorf("fabric: empty node name")
		}
		if declared[name] {
			return nil, fmt.Errorf("fabric: duplicate node %q", name)
		}
		declared[name] = true
	}
	adj := make(map[string][]string)
	indeg := make(map[string]int)
	for _, e := range n.Edges {
		if !declared[e[0]] || !declared[e[1]] {
			return nil, fmt.Errorf("fabric: edge %v references undeclared node", e)
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}

	// BFS from the sources (in-degree zero), visiting fan-outs in
	// declaration order; cycles are entered at their first declared node.
	order := make([]string, 0, len(n.Nodes))
	seen := make(map[string]bool)
	var queue []string
	for _, name := range n.Nodes {
		if indeg[name] == 0 {
			queue = append(queue, name)
			seen[name] = true
		}
	}
	enqueue := func(name string) {
		if !seen[name] {
			seen[name] = true
			queue = append(queue, name)
		}
	}
	for {
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur)
			for _, nxt := range adj[cur] {
				enqueue(nxt)
			}
		}
		if len(order) == len(n.Nodes) {
			break
		}
		// Pure cycles with no zero-indegree entry: seed the first
		// unplaced node in declaration order.
		for _, name := range n.Nodes {
			if !seen[name] {
				enqueue(name)
				break
			}
		}
	}

	// Serpentine scan: consecutive order positions are grid neighbours.
	p := &Placement{Grid: grid, Coord: make(map[string]Coord, len(order))}
	for i, name := range order {
		y := i / grid.X
		x := i % grid.X
		if y%2 == 1 {
			x = grid.X - 1 - x // snake back
		}
		p.Coord[name] = Coord{X: x, Y: y}
	}
	return p, nil
}

// Validate checks a placement against its netlist: every declared node is
// placed (and nothing else), every coordinate is inside the grid, and no
// two tiles share a coordinate. Hand-edited or merged placements go through
// here before anyone trusts their Latency numbers.
func (p *Placement) Validate(n Netlist) error {
	declared := make(map[string]bool, len(n.Nodes))
	for _, name := range n.Nodes {
		declared[name] = true
		if _, ok := p.Coord[name]; !ok {
			return fmt.Errorf("fabric: node %q is declared but not placed", name)
		}
	}
	placed := make([]string, 0, len(p.Coord))
	for name := range p.Coord {
		placed = append(placed, name)
	}
	sort.Strings(placed)
	occupied := make(map[Coord]string, len(placed))
	for _, name := range placed {
		if !declared[name] {
			return fmt.Errorf("fabric: placement includes undeclared node %q", name)
		}
		c := p.Coord[name]
		if c.X < 0 || c.X >= p.Grid.X || c.Y < 0 || c.Y >= p.Grid.Y {
			return fmt.Errorf("fabric: node %q placed at (%d,%d), outside the %dx%d grid",
				name, c.X, c.Y, p.Grid.X, p.Grid.Y)
		}
		if prev, ok := occupied[c]; ok {
			return fmt.Errorf("fabric: nodes %q and %q share tile (%d,%d)", prev, name, c.X, c.Y)
		}
		occupied[c] = name
	}
	return nil
}

// Latency returns the link latency between two placed tiles: one cycle of
// registering plus the Manhattan hop count.
func (p *Placement) Latency(a, b string) (int, error) {
	ca, ok := p.Coord[a]
	if !ok {
		return 0, fmt.Errorf("fabric: node %q not placed", a)
	}
	cb, ok := p.Coord[b]
	if !ok {
		return 0, fmt.Errorf("fabric: node %q not placed", b)
	}
	return 1 + abs(ca.X-cb.X) + abs(ca.Y-cb.Y), nil
}

// WireStats summarizes a placement against its netlist: total and mean
// Manhattan wirelength over all edges.
func (p *Placement) WireStats(n Netlist) (total int, mean float64, err error) {
	if len(n.Edges) == 0 {
		return 0, 0, nil
	}
	for _, e := range n.Edges {
		l, err := p.Latency(e[0], e[1])
		if err != nil {
			return 0, 0, err
		}
		total += l - 1
	}
	return total, float64(total) / float64(len(n.Edges)), nil
}

// Render draws the placement as a compact ASCII grid, each tile shown by
// its 1-based position among the tile names sorted — a debugging aid for
// layout studies.
func (p *Placement) Render() string {
	byCoord := make(map[Coord]int)
	names := make([]string, 0, len(p.Coord))
	for name := range p.Coord {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		byCoord[p.Coord[name]] = i + 1
	}
	out := ""
	maxY := 0
	for _, name := range names {
		if c := p.Coord[name]; c.Y > maxY {
			maxY = c.Y
		}
	}
	for y := 0; y <= maxY; y++ {
		for x := 0; x < p.Grid.X; x++ {
			if id, ok := byCoord[Coord{X: x, Y: y}]; ok {
				out += fmt.Sprintf("%3d", id)
			} else {
				out += "  ."
			}
		}
		out += "\n"
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
