// Package overlay provides the unstructured-P2P overlay graph substrate:
// an undirected multigraph-free adjacency structure, the random topologies
// used in the literature the paper builds on (uniform random graphs,
// Barabási–Albert power-law graphs like measured Gnutella snapshots, and
// Watts–Strogatz small worlds), plus the connectivity and rewiring
// primitives the topology-adaptation extension (paper §VI) needs.
package overlay

import (
	"fmt"

	"arq/internal/stats"
)

// Graph is an undirected simple graph over nodes 0..N-1, held as the
// compressed sparse rows the query engines read: every neighbor list in
// one column array, indexed by a row-pointer array, so neighbor scans
// are sequential reads and a million-node overlay's adjacency fits in a
// few dozen megabytes. The generators build both arrays once from their
// edge lists; an edit copies the rows it changes out first, so the
// arrays are never written after the build.
type Graph struct {
	// rowPtr has length N+1; node u's built row is
	// col[rowPtr[u]:rowPtr[u+1]]. uint32 keeps the hottest
	// randomly-accessed array of a traversal at half the cache footprint
	// of a word-sized offset; the build refuses more than 4B entries.
	rowPtr []uint32
	col    []int32
	// edited is nil until the first edit, then holds, per node, the row
	// an edit copied out of col (nil for a row still as built).
	edited [][]int32
	m      int
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("overlay: negative node count")
	}
	return &Graph{rowPtr: make([]uint32, n+1)}
}

// fromEdges builds the graph whose edge i joins ends[2i] and ends[2i+1]
// (distinct non-loops): each row lists its neighbors in edge order,
// element for element what AddEdge appending the edges one at a time
// gives. It is a counting sort: u's degree lands in ptr[u+2], so the
// prefix sum leaves ptr[u+1] at u's row start, the fill's cursor, which
// the fill advances to the row's end, where ptr[u+1] belongs.
func fromEdges(n int, ends []int32) *Graph {
	if int64(len(ends)) > int64(^uint32(0)) {
		panic("overlay: adjacency exceeds 4B entries")
	}
	ptr := make([]uint32, n+2)
	for _, u := range ends {
		ptr[u+2]++
	}
	for i := 2; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	col := make([]int32, len(ends))
	for i := 0; i+1 < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		col[ptr[u+1]] = v
		ptr[u+1]++
		col[ptr[v+1]] = u
		ptr[v+1]++
	}
	return &Graph{rowPtr: ptr[:n+1], col: col, m: len(ends) / 2}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rowPtr) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.Neighbors(u)) }

// Neighbors returns u's adjacency list. The returned slice is owned by the
// graph and must not be modified; it holds until the next edit of u's row.
func (g *Graph) Neighbors(u int) []int32 {
	if g.edited != nil {
		if row := g.edited[u]; row != nil {
			return row
		}
	}
	return g.col[g.rowPtr[u]:g.rowPtr[u+1]]
}

// TouchRow reads node u's row pointer and returns it, so a traversal
// loop can issue the load for a row it will scan a few iterations from
// now and sink the result, keeping the DRAM misses of million-node
// frontiers in flight ahead of use. Deliberately one independent load:
// touching the columns too would chain a second miss behind it.
func (g *Graph) TouchRow(u int32) uint32 {
	return g.rowPtr[u]
}

// TouchCol reads the first entry of u's built row (0 for an empty one):
// TouchRow's second stage, one unchained load once the pointer is
// cached. For an edited row it warms dead entries, harmlessly.
func (g *Graph) TouchCol(u int32) int32 {
	if p := g.rowPtr[u]; p < g.rowPtr[u+1] {
		return g.col[p]
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

// AddEdge inserts the undirected edge {u, v}, reporting whether it was
// added (false for self-loops and existing edges).
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	ru, rv := g.editRow(u), g.editRow(v)
	g.edited[u] = append(ru, int32(v))
	g.edited[v] = append(rv, int32(u))
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	ru, rv := g.editRow(u), g.editRow(v)
	g.edited[u] = removeVal(ru, int32(v))
	g.edited[v] = removeVal(rv, int32(u))
	g.m--
	return true
}

// editRow returns u's row for an edit, copied out of col on its first.
func (g *Graph) editRow(u int) []int32 {
	if g.edited == nil {
		g.edited = make([][]int32, g.N())
	}
	if row := g.edited[u]; row != nil {
		return row
	}
	built := g.col[g.rowPtr[u]:g.rowPtr[u+1]]
	return append(make([]int32, 0, len(built)+1), built...)
}

func removeVal(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
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
