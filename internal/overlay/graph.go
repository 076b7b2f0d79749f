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

// Graph is an undirected simple graph over nodes 0..N-1.
type Graph struct {
	adj [][]int32
	m   int
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("overlay: negative node count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns u's adjacency list. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the smaller list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
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
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeVal(g.adj[u], int32(v))
	g.adj[v] = removeVal(g.adj[v], int32(u))
	g.m--
	return true
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

// reach returns the number of nodes reachable from start.
func (g *Graph) reach(start int) int {
	seen := make([]bool, g.N())
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[u] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, int(w))
			}
		}
	}
	return count
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
			for _, w := range g.adj[u] {
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

// ensureConnected links all components into one by adding one edge between
// consecutive components, returning the number of edges added.
func (g *Graph) ensureConnected(rng *stats.RNG) int {
	comps := g.components()
	added := 0
	for i := 1; i < len(comps); i++ {
		a := comps[i-1][rng.Intn(len(comps[i-1]))]
		b := comps[i][rng.Intn(len(comps[i]))]
		if g.AddEdge(a, b) {
			added++
		}
	}
	return added
}

// String renders a short description.
func (g *Graph) String() string {
	return fmt.Sprintf("overlay{n=%d m=%d}", g.N(), g.M())
}
