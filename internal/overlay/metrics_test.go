package overlay

import (
	"math"
	"testing"

	"arq/internal/stats"
)

func path(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

func TestAvgPathLengthLine(t *testing.T) {
	// Path on 4 nodes: distances 1,2,3,1,2,1 each way; mean = 20/12.
	g := path(4)
	got := g.AvgPathLength(stats.NewRNG(1), 0)
	want := 20.0 / 12.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg path = %v, want %v", got, want)
	}
}

func TestAvgPathLengthSampled(t *testing.T) {
	g := Random(stats.NewRNG(2), 300, 6)
	full := g.AvgPathLength(stats.NewRNG(3), 0)
	sampled := g.AvgPathLength(stats.NewRNG(3), 60)
	if math.Abs(full-sampled) > 0.3 {
		t.Fatalf("sampled %v deviates from full %v", sampled, full)
	}
}

func TestClusteringCoefficientTriangleAndStar(t *testing.T) {
	tri := NewGraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if c := tri.ClusteringCoefficient(); c != 1 {
		t.Fatalf("triangle clustering = %v", c)
	}
	star := NewGraph(5)
	for i := 1; i < 5; i++ {
		star.AddEdge(0, i)
	}
	if c := star.ClusteringCoefficient(); c != 0 {
		t.Fatalf("star clustering = %v", c)
	}
}

func TestSmallWorldProperties(t *testing.T) {
	// Watts–Strogatz at low beta: clustering well above a random graph of
	// the same density, path length far below the ring lattice.
	rng := stats.NewRNG(4)
	ws := WattsStrogatz(rng, 400, 6, 0.1)
	rnd := Random(stats.NewRNG(5), 400, 6)
	if ws.ClusteringCoefficient() < 3*rnd.ClusteringCoefficient() {
		t.Fatalf("WS clustering %v not >> random %v",
			ws.ClusteringCoefficient(), rnd.ClusteringCoefficient())
	}
	lattice := WattsStrogatz(stats.NewRNG(6), 400, 6, 0)
	if ws.AvgPathLength(rng, 50) > lattice.AvgPathLength(rng, 50)/2 {
		t.Fatal("WS rewiring did not shorten paths")
	}
}

func TestDiameterLine(t *testing.T) {
	if d := path(7).Diameter(); d != 6 {
		t.Fatalf("diameter = %d", d)
	}
	if d := NewGraph(1).Diameter(); d != 0 {
		t.Fatalf("singleton diameter = %d", d)
	}
}

func TestTinyGraphMetrics(t *testing.T) {
	g := NewGraph(1)
	if g.AvgPathLength(stats.NewRNG(1), 0) != 0 {
		t.Fatal("singleton path length")
	}
	if g.ClusteringCoefficient() != 0 {
		t.Fatal("singleton clustering")
	}
}

// AvgPathLength estimates the mean shortest-path hop count by running BFS
// from samples random sources (samples <= 0 uses every node). Unreachable
// pairs are skipped. Returns 0 for graphs with fewer than 2 nodes.
func (g *Graph) AvgPathLength(rng *stats.RNG, samples int) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	var sources []int
	if samples <= 0 || samples >= n {
		sources = make([]int, n)
		for i := range sources {
			sources[i] = i
		}
	} else {
		sources = stats.SampleWithoutReplacement(rng, n, samples)
	}
	total, count := 0.0, 0
	for _, s := range sources {
		for v, d := range g.BFSDepths(s) {
			if d > 0 && v != s {
				total += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// ClusteringCoefficient returns the mean local clustering coefficient:
// for each node with degree >= 2, the fraction of its neighbor pairs that
// are themselves connected, averaged over such nodes. Watts–Strogatz
// small worlds score high, uniform random graphs near avgDeg/n.
func (g *Graph) ClusteringCoefficient() float64 {
	total, count := 0.0, 0
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		if len(nbrs) < 2 {
			continue
		}
		links := 0
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
					links++
				}
			}
		}
		possible := len(nbrs) * (len(nbrs) - 1) / 2
		total += float64(links) / float64(possible)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Diameter returns the exact longest shortest path (hop count) between any
// connected pair; O(N·M), intended for experiment-scale graphs.
func (g *Graph) Diameter() int {
	max := 0
	for s := 0; s < g.N(); s++ {
		for _, d := range g.BFSDepths(s) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// BFSDepths returns each node's hop distance from start (-1 when
// unreachable).
func (g *Graph) BFSDepths(start int) []int {
	depth := make([]int, g.N())
	for i := range depth {
		depth[i] = -1
	}
	depth[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if depth[w] < 0 {
				depth[w] = depth[u] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return depth
}
