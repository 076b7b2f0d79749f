package overlay

import (
	"testing"
	"testing/quick"

	"arq/internal/stats"
)

// DegreeStats summarizes the degree distribution.
func (g *Graph) DegreeStats() stats.Summary {
	var s stats.Summary
	for u := 0; u < g.N(); u++ {
		s.Add(float64(g.Degree(u)))
	}
	return s
}

func TestAddRemoveEdge(t *testing.T) {
	g := NewGraph(4)
	if !g.AddEdge(0, 1) || !g.AddEdge(1, 2) {
		t.Fatal("fresh edges rejected")
	}
	if g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Fatal("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop accepted")
	}
	if g.M() != 2 || g.Degree(1) != 2 {
		t.Fatalf("m=%d deg1=%d", g.M(), g.Degree(1))
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removed edge removed twice")
	}
	if g.HasEdge(0, 1) || !g.HasEdge(2, 1) {
		t.Fatal("edge state wrong after removal")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d after removal", g.M())
	}
}

func TestConnectivity(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.components()
	if len(comps) != 3 { // {0,1} {2,3} {4}
		t.Fatalf("components = %d", len(comps))
	}
	added := g.ensureConnected(stats.NewRNG(1))
	if added != 2 {
		t.Fatalf("added = %d", added)
	}
	if !g.Connected() {
		t.Fatal("EnsureConnected failed")
	}
}

func TestBFSDepths(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := g.BFSDepths(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("depths = %v", d)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone shares storage with original")
	}
	if c.M() != 2 || g.M() != 1 {
		t.Fatalf("m: clone=%d orig=%d", c.M(), g.M())
	}
}

func TestRandomGraphProperties(t *testing.T) {
	rng := stats.NewRNG(2)
	g := Random(rng, 500, 6)
	if !g.Connected() {
		t.Fatal("random graph not connected")
	}
	ds := g.DegreeStats()
	if ds.Mean() < 5 || ds.Mean() > 7.5 {
		t.Fatalf("average degree = %v, want ~6", ds.Mean())
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	rng := stats.NewRNG(3)
	g := barabasiAlbert(rng, 2000, 2)
	if !g.Connected() {
		t.Fatal("BA graph not connected")
	}
	// Heavy tail: the max degree should far exceed the mean.
	ds := g.DegreeStats()
	if ds.Max() < 4*ds.Mean() {
		t.Fatalf("max degree %v not heavy-tailed vs mean %v", ds.Max(), ds.Mean())
	}
	// Every non-seed node attaches with m=2 edges, so min degree >= 2.
	if ds.Min() < 2 {
		t.Fatalf("min degree = %v", ds.Min())
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	rng := stats.NewRNG(4)
	g := WattsStrogatz(rng, 400, 4, 0.1)
	if !g.Connected() {
		t.Fatal("WS graph not connected")
	}
	ds := g.DegreeStats()
	if ds.Mean() < 3.5 || ds.Mean() > 4.5 {
		t.Fatalf("average degree = %v, want ~4", ds.Mean())
	}
}

func TestWattsStrogatzZeroBetaIsLattice(t *testing.T) {
	g := WattsStrogatz(stats.NewRNG(5), 20, 4, 0)
	for u := 0; u < 20; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("lattice degree = %d at node %d", g.Degree(u), u)
		}
	}
}

func TestGnutellaLikeConnectedLowDiameter(t *testing.T) {
	g := GnutellaLike(stats.NewRNG(6), 1500)
	if !g.Connected() {
		t.Fatal("not connected")
	}
	d := g.BFSDepths(0)
	max := 0
	for _, x := range d {
		if x > max {
			max = x
		}
	}
	if max > 12 {
		t.Fatalf("diameter-ish %d too large for a Gnutella-like graph", max)
	}
}

func TestGraphInvariantsQuick(t *testing.T) {
	// Adjacency symmetry and edge count hold under arbitrary edge ops.
	f := func(ops []uint16) bool {
		g := NewGraph(12)
		for _, op := range ops {
			u := int(op) % 12
			v := int(op/12) % 12
			if op%2 == 0 {
				g.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
			}
		}
		count := 0
		for u := 0; u < 12; u++ {
			for _, w := range g.Neighbors(u) {
				if !g.HasEdge(int(w), u) {
					return false
				}
				count++
			}
		}
		return count == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GnutellaLike(stats.NewRNG(9), 300)
	b := GnutellaLike(stats.NewRNG(9), 300)
	if a.M() != b.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.M(), b.M())
	}
	for u := 0; u < 300; u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("degrees differ at %d", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency differs at %d", u)
			}
		}
	}
}

// Connected reports whether the graph is a single connected component
// (vacuously true for n <= 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	return g.reach(0) == g.N()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.N())
	c.m = g.m
	for u := range g.adj {
		c.adj[u] = append([]int32(nil), g.adj[u]...)
	}
	return c
}
