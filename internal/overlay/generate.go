package overlay

import "arq/internal/stats"

// edgeSet is a graph under construction: its edges in the order they
// were added, and the set of them that turns a repeat away.
type edgeSet struct {
	ends []int32
	seen map[uint64]struct{}
}

// add inserts the edge {u, v}, reporting whether it was added (false for
// self-loops and edges already in the set), as Graph.AddEdge does.
func (s *edgeSet) add(u, v int) bool {
	if u == v {
		return false
	}
	k := uint64(min(u, v))<<32 | uint64(max(u, v))
	if _, ok := s.seen[k]; ok {
		return false
	}
	s.seen[k] = struct{}{}
	s.ends = append(s.ends, int32(u), int32(v))
	return true
}

// Random builds a connected G(n, m)-style uniform random graph with
// approximately avgDeg average degree. Edges are sampled uniformly;
// disconnected components are then stitched together, so the result is
// always connected for n >= 1.
func Random(rng *stats.RNG, n int, avgDeg float64) *Graph {
	if n <= 1 {
		return NewGraph(n)
	}
	target := min(int(float64(n)*avgDeg/2), n*(n-1)/2)
	s := &edgeSet{ends: make([]int32, 0, 2*target), seen: make(map[uint64]struct{}, target)}
	for len(s.ends) < 2*target {
		u := rng.Intn(n)
		v := rng.Intn(n)
		s.add(u, v)
	}
	return connected(rng, n, s.ends)
}

// barabasiAlbert draws a connected preferential-attachment graph as its
// edge list: each new node attaches to m existing nodes chosen
// proportionally to degree, producing the power-law degree distribution
// measured in Gnutella topologies. The list has room for spare more
// edges. n must be > m >= 1.
func barabasiAlbert(rng *stats.RNG, n, m, spare int) []int32 {
	if m < 1 {
		panic("overlay: barabasiAlbert requires m >= 1")
	}
	if n <= m {
		panic("overlay: barabasiAlbert requires n > m")
	}
	// repeated holds node ids once per incident edge endpoint, so sampling
	// uniformly from it is sampling proportional to degree. The seed
	// clique of m+1 nodes puts its m(m+1) endpoints in node by node;
	// every later node appends its edges as (node, target) pairs, so
	// past the clique the list is the edge list itself.
	repeated := make([]int32, 0, 2*m*n+2*spare)
	for u := 0; u <= m; u++ {
		for range m {
			repeated = append(repeated, int32(u))
		}
	}
	for u := m + 1; u < n; u++ {
		own := len(repeated)
		for attempts := 0; len(repeated)-own < 2*m && attempts < 50*m; attempts++ {
			repeated = attach(repeated, own, u, int(repeated[rng.Intn(len(repeated))]))
		}
		// Extremely unlikely fallback: attach to a uniform node.
		for len(repeated)-own < 2*m {
			repeated = attach(repeated, own, u, rng.Intn(u))
		}
	}
	// Sampling is over: the clique's endpoints become its edges, in the
	// order the clique was wired.
	i := 0
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			repeated[i], repeated[i+1] = int32(u), int32(v)
			i += 2
		}
	}
	return repeated
}

// attach appends the edge (u, t) to the edge list ends unless t is u or
// already one of u's attachments, the pairs from ends[own] on — the only
// edges a new node has, so the check is Graph.AddEdge's.
func attach(ends []int32, own, u, t int) []int32 {
	if t == u {
		return ends
	}
	for i := own + 1; i < len(ends); i += 2 {
		if int(ends[i]) == t {
			return ends
		}
	}
	return append(ends, int32(u), int32(t))
}

// WattsStrogatz builds a small-world graph: a ring lattice where each node
// connects to its k nearest neighbors (k even), with each edge rewired to a
// uniform random endpoint with probability beta. The result is stitched
// connected.
func WattsStrogatz(rng *stats.RNG, n, k int, beta float64) *Graph {
	if k%2 != 0 || k < 2 {
		panic("overlay: WattsStrogatz requires even k >= 2")
	}
	if n <= k {
		panic("overlay: WattsStrogatz requires n > k")
	}
	s := &edgeSet{ends: make([]int32, 0, n*k), seen: make(map[uint64]struct{}, n*k/2)}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !rng.Bool(beta) {
				s.add(u, v)
				continue
			}
			// Rewire to a random target, keeping u's endpoint.
			for attempts := 0; attempts < 20; attempts++ {
				w := rng.Intn(n)
				if w != u && s.add(u, w) {
					break
				}
			}
		}
	}
	return connected(rng, n, s.ends)
}

// GnutellaLike builds the topology used for the network experiments: a
// power-law core (Barabási–Albert) with extra random long links, which
// approximates measured Gnutella snapshots — heavy-tailed degrees plus a
// low diameter. A long link is checked against the core's built rows
// and against the links before it, and the graph is built once more
// with the links appended.
func GnutellaLike(rng *stats.RNG, n int) *Graph {
	extra := n / 10
	core := barabasiAlbert(rng, n, 2, extra)
	g := fromEdges(n, core)
	links := &edgeSet{ends: core, seen: make(map[uint64]struct{}, extra)}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if !g.HasEdge(u, v) {
			links.add(u, v)
		}
	}
	if len(links.ends) == len(core) {
		return g
	}
	return fromEdges(n, links.ends)
}
