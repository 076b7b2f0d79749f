// Package overlay provides the unstructured-P2P overlay graph substrate:
// an undirected multigraph-free adjacency structure, the random topologies
// used in the literature the paper builds on (uniform random graphs,
// Barabási–Albert power-law graphs like measured Gnutella snapshots, and
// Watts–Strogatz small worlds), plus the connectivity and rewiring
// primitives the topology-adaptation extension (paper §VI) needs.
package overlay

import (
	"fmt"
	"slices"

	"arq/internal/stats"
	"arq/internal/stream"
)

// Graph is an undirected simple graph over nodes 0..N-1, held as one
// stream.Arena of neighbor rows, the adjacency the query engines read:
// every row a run of one int32 array, so neighbor scans are sequential
// reads and a million-node overlay's adjacency fits in a few dozen
// megabytes. The generators build the arena packed, in node order, from
// their edge lists. An edit moves a grown row to the array's tail and
// rewrites a shrunk one in place; the arena rebuilds itself in node
// order once dead entries outnumber live ones, so churn never holds more
// than twice the live rows.
type Graph struct {
	adj stream.Arena[int32]
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("overlay: negative node count")
	}
	return &Graph{adj: stream.NewArena[int32](n)}
}

// fromEdges builds the graph whose edge i joins ends[2i] and ends[2i+1]
// (distinct non-loops): each row lists its neighbors in edge order,
// element for element what AddEdge appending the edges one at a time
// gives. It is a counting sort: the degrees, a prefix sum that leaves
// each run's offset, and one fill pass in edge order that counts each
// run back up to its degree.
func fromEdges(n int, ends []int32) *Graph {
	if int64(len(ends)) > int64(^uint32(0)) {
		panic("overlay: adjacency exceeds 4B entries")
	}
	runs := make([]stream.Run, n)
	for _, u := range ends {
		runs[u].N++
	}
	off := uint32(0)
	for u := range runs {
		runs[u].Off, off = off, off+runs[u].N
		runs[u].N = 0
	}
	col := make([]int32, len(ends))
	for i := 0; i+1 < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		col[runs[u].Off+runs[u].N] = v
		runs[u].N++
		col[runs[v].Off+runs[v].N] = u
		runs[v].N++
	}
	return &Graph{adj: stream.PackedArena(col, runs)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.adj.N() }

// M returns the number of edges: every edge is an entry of two rows.
func (g *Graph) M() int { return g.adj.Live() / 2 }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.Neighbors(u)) }

// Neighbors returns u's adjacency list, capped at its end. The returned
// slice is owned by the graph and must not be modified; it holds until
// the next edit of u's row, and an edit of any other row leaves it as it
// was.
func (g *Graph) Neighbors(u int) []int32 { return g.adj.Row(u) }

// TouchRow reads node u's run and returns its offset, so a traversal
// loop can issue the load for a row it will scan a few iterations from
// now and sink the result, keeping the DRAM misses of million-node
// frontiers in flight ahead of use. Deliberately one independent load:
// touching the row's values too would chain a second miss behind it.
func (g *Graph) TouchRow(u int32) uint32 { return g.adj.Run(int(u)).Off }

// TouchCol reads the first entry of u's row (0 for an empty one):
// TouchRow's second stage, one unchained load once the run is cached.
func (g *Graph) TouchCol(u int32) int32 {
	if row := g.Neighbors(int(u)); len(row) > 0 {
		return row[0]
	}
	return 0
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the smaller list.
	a, b := g.Neighbors(u), v
	if nb := g.Neighbors(v); len(a) > len(nb) {
		a, b = nb, u
	}
	for _, w := range a {
		if int(w) == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u, v} at the end of both rows,
// reporting whether it was added (false for self-loops and existing
// edges).
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.adj.Append(u, int32(v))
	g.adj.Append(v, int32(u))
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, moving each row's last
// entry into the hole, and reports whether it existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	i := slices.Index(g.Neighbors(u), int32(v))
	if i < 0 {
		return false
	}
	g.adj.SwapRemove(u, i)
	g.adj.SwapRemove(v, slices.Index(g.Neighbors(v), int32(u)))
	return true
}

// components returns the connected components as node lists.
func (g *Graph) components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// connected builds the graph of ends, stitched into one component: each
// component (in order of their lowest node) is joined to the next by an
// edge between uniform members of the two.
func connected(rng *stats.RNG, n int, ends []int32) *Graph {
	g := fromEdges(n, ends)
	comps := g.components()
	if len(comps) <= 1 {
		return g
	}
	for i := 1; i < len(comps); i++ {
		a := comps[i-1][rng.Intn(len(comps[i-1]))]
		b := comps[i][rng.Intn(len(comps[i]))]
		ends = append(ends, int32(a), int32(b))
	}
	return fromEdges(n, ends)
}

// String renders a short description.
func (g *Graph) String() string {
	return fmt.Sprintf("overlay{n=%d m=%d}", g.N(), g.M())
}
