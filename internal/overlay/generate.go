package overlay

import "arq/internal/stats"

// Random builds a connected G(n, m)-style uniform random graph with
// approximately avgDeg average degree. Edges are sampled uniformly;
// disconnected components are then stitched together, so the result is
// always connected for n >= 1.
func Random(rng *stats.RNG, n int, avgDeg float64) *Graph {
	g := NewGraph(n)
	if n <= 1 {
		return g
	}
	target := int(float64(n) * avgDeg / 2)
	maxEdges := n * (n - 1) / 2
	if target > maxEdges {
		target = maxEdges
	}
	for g.M() < target {
		u := rng.Intn(n)
		v := rng.Intn(n)
		g.AddEdge(u, v)
	}
	g.ensureConnected(rng)
	return g
}

// barabasiAlbert builds a connected preferential-attachment graph: each new
// node attaches to m existing nodes chosen proportionally to degree,
// producing the power-law degree distribution measured in Gnutella
// topologies. n must be > m >= 1.
func barabasiAlbert(rng *stats.RNG, n, m int) *Graph {
	if m < 1 {
		panic("overlay: barabasiAlbert requires m >= 1")
	}
	if n <= m {
		panic("overlay: barabasiAlbert requires n > m")
	}
	g := NewGraph(n)
	// Seed clique of m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			g.AddEdge(u, v)
		}
	}
	// repeated holds node ids once per incident edge endpoint, so sampling
	// uniformly from it is sampling proportional to degree. The clique
	// puts m(m+1) endpoints in and every later node 2m, so 2mn bounds it.
	repeated := make([]int32, 0, 2*m*n)
	for u := 0; u <= m; u++ {
		for range g.Neighbors(u) {
			repeated = append(repeated, int32(u))
		}
	}
	for u := m + 1; u < n; u++ {
		attached := 0
		for attempts := 0; attached < m && attempts < 50*m; attempts++ {
			t := int(repeated[rng.Intn(len(repeated))])
			if g.AddEdge(u, t) {
				attached++
				repeated = append(repeated, int32(u), int32(t))
			}
		}
		// Extremely unlikely fallback: attach to a uniform node.
		for attached < m {
			t := rng.Intn(u)
			if g.AddEdge(u, t) {
				attached++
				repeated = append(repeated, int32(u), int32(t))
			}
		}
	}
	return g
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
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !rng.Bool(beta) {
				g.AddEdge(u, v)
				continue
			}
			// Rewire to a random target, keeping u's endpoint.
			for attempts := 0; attempts < 20; attempts++ {
				w := rng.Intn(n)
				if w != u && g.AddEdge(u, w) {
					break
				}
			}
		}
	}
	g.ensureConnected(rng)
	return g
}

// GnutellaLike builds the topology used for the network experiments: a
// power-law core (Barabási–Albert) with extra random long links, which
// approximates measured Gnutella snapshots — heavy-tailed degrees plus a
// low diameter.
func GnutellaLike(rng *stats.RNG, n int) *Graph {
	m := 2
	g := barabasiAlbert(rng, n, m)
	extra := n / 10
	for i := 0; i < extra; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}
