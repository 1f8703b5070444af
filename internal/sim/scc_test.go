package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// reachability returns reach[u][v] = v is reachable from u by a path of
// zero or more edges.
func reachability(adj [][]int32) [][]bool {
	n := len(adj)
	reach := make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		stack := []int32{int32(u)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !reach[u][w] {
					reach[u][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return reach
}

// checkSCC verifies StronglyConnected against brute-force reachability:
// components are numbered 0..count-1, two nodes share one iff they are
// mutually reachable, every edge points from a higher-or-equal component
// to a lower-or-equal one (reverse topological numbering), and a second
// call returns the identical answer.
func checkSCC(t *testing.T, name string, adj [][]int32) {
	t.Helper()
	of, count := StronglyConnected(adj)
	if len(of) != len(adj) {
		t.Fatalf("%s: %d component indices for %d nodes", name, len(of), len(adj))
	}
	seen := make([]bool, count)
	for u, c := range of {
		if c < 0 || int(c) >= count {
			t.Fatalf("%s: node %d in component %d, count %d", name, u, c, count)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("%s: component %d of %d is empty", name, c, count)
		}
	}
	reach := reachability(adj)
	for u := range adj {
		for v := range adj {
			mutual := reach[u][v] && reach[v][u]
			if same := of[u] == of[v]; same != mutual {
				t.Errorf("%s: nodes %d,%d same component=%v, mutually reachable=%v", name, u, v, same, mutual)
			}
		}
	}
	for u, out := range adj {
		for _, v := range out {
			if of[u] < of[v] {
				t.Errorf("%s: edge %d->%d goes from component %d up to %d", name, u, v, of[u], of[v])
			}
		}
	}
	of2, count2 := StronglyConnected(adj)
	if count2 != count || !reflect.DeepEqual(of2, of) {
		t.Errorf("%s: second call returned %v/%d, first %v/%d", name, of2, count2, of, count)
	}
}

func TestStronglyConnectedTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		adj   [][]int32
		count int
	}{
		{"empty", nil, 0},
		{"isolated", [][]int32{nil, nil, nil}, 3},
		{"self-loop", [][]int32{{0}, {1, 0}}, 2},
		{"multi-edge", [][]int32{{1, 1, 1}, nil}, 2},
		{"two-cycle", [][]int32{{1}, {0}}, 1},
		{"dag-diamond", [][]int32{{1, 2}, {3}, {3}, nil}, 4},
		{"loop-with-tail", [][]int32{{1}, {2}, {1, 3}, {3}}, 3},
		{"two-loops-chained", [][]int32{{1}, {0, 2}, {3}, {2}}, 2},
	} {
		checkSCC(t, tc.name, tc.adj)
		if _, count := StronglyConnected(tc.adj); count != tc.count {
			t.Errorf("%s: %d components, want %d", tc.name, count, tc.count)
		}
	}
}

// TestStronglyConnectedRandom checks the reachability, ordering and
// determinism properties on seeded random digraphs, self-loops and
// multi-edges included, from sparse to dense.
func TestStronglyConnectedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := rng.Intn(24)
		adj := make([][]int32, n)
		if n > 0 {
			edges := rng.Intn(3*n + 1)
			for e := 0; e < edges; e++ {
				u := rng.Intn(n)
				adj[u] = append(adj[u], int32(rng.Intn(n)))
			}
		}
		checkSCC(t, "random", adj)
	}
}
