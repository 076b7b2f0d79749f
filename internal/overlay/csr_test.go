package overlay

import (
	"math/rand"
	"testing"
	"testing/quick"

	"arq/internal/stats"
)

// csrMatchesGraph asserts element-for-element equality between the CSR
// and the source graph's adjacency.
func csrMatchesGraph(t *testing.T, g *Graph, c *CSR) {
	t.Helper()
	if c.N() != g.N() {
		t.Fatalf("CSR has %d nodes, graph has %d", c.N(), g.N())
	}
	if c.Edges() != 2*int64(g.M()) {
		t.Fatalf("CSR stores %d endpoints, graph has %d edges", c.Edges(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("node %d: CSR degree %d, graph degree %d", u, c.Degree(u), g.Degree(u))
		}
		want := g.Neighbors(u)
		got := c.Neighbors(u)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d neighbor %d: CSR %d, graph %d", u, i, got[i], want[i])
			}
		}
		first := int32(0)
		if len(want) > 0 {
			first = want[0]
		}
		if col := c.TouchCol(int32(u)); col != first {
			t.Fatalf("node %d: TouchCol = %d, want %d (first neighbor, 0 if isolated)", u, col, first)
		}
	}
}

func TestCSREmptyAndIsolated(t *testing.T) {
	csrMatchesGraph(t, NewGraph(0), NewCSR(NewGraph(0)))
	// Degree-0 nodes: no edges at all.
	g := NewGraph(5)
	csrMatchesGraph(t, g, NewCSR(g))
	// A mix of connected and isolated nodes.
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	c := NewCSR(g)
	csrMatchesGraph(t, g, c)
	if c.Degree(1) != 0 || c.Degree(2) != 0 {
		t.Fatalf("isolated nodes gained neighbors: %d, %d", c.Degree(1), c.Degree(2))
	}
	if c.MaxDegree() != 2 {
		t.Fatalf("max degree = %d, want 2", c.MaxDegree())
	}
	// Isolated nodes ahead of a row that starts with a nonzero column:
	// TouchCol must not read into the next row.
	g = NewGraph(4)
	g.AddEdge(2, 3)
	csrMatchesGraph(t, g, NewCSR(g))
}

// TestCSRQuickEquivalence is the property test: for random generated
// graphs, the CSR adjacency is element-for-element equal to
// Graph.Neighbors.
func TestCSRQuickEquivalence(t *testing.T) {
	f := func(seed int64, rawN uint8, rawDeg uint8) bool {
		n := int(rawN%200) + 1
		deg := float64(rawDeg%8) + 0.5
		g := Random(stats.NewRNG(uint64(seed)), n, deg)
		c := NewCSR(g)
		if c.N() != g.N() || c.Edges() != 2*int64(g.M()) {
			return false
		}
		for u := 0; u < g.N(); u++ {
			want := g.Neighbors(u)
			got := c.Neighbors(u)
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRSnapshotImmutability: mutating the graph after NewCSR must not
// change the snapshot.
func TestCSRSnapshotImmutability(t *testing.T) {
	g := Random(stats.NewRNG(3), 50, 4)
	before := g.Clone()
	c := NewCSR(g)
	rng := stats.NewRNG(4)
	for i := 0; i < 40; i++ {
		g.AddEdge(rng.Intn(50), rng.Intn(50))
	}
	csrMatchesGraph(t, before, c)
}

// FuzzCSRBuilder feeds arbitrary edge lists — duplicate edges, self
// loops, isolated nodes — through the Graph builder and checks the CSR
// equivalence invariants hold for whatever graph results.
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})             // self loop only
	f.Add([]byte{0, 1, 0, 1, 1, 0}) // duplicate edge both directions
	f.Add([]byte{5, 9, 2, 2, 7, 1, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16 // small universe so duplicates are frequent
		g := NewGraph(n)
		for i := 0; i+1 < len(data); i += 2 {
			g.AddEdge(int(data[i])%n, int(data[i+1])%n) // dup/self-loop returns false
		}
		c := NewCSR(g)
		if c.N() != n {
			t.Fatalf("CSR has %d nodes, want %d", c.N(), n)
		}
		if c.Edges() != 2*int64(g.M()) {
			t.Fatalf("CSR stores %d endpoints for %d edges", c.Edges(), g.M())
		}
		for u := 0; u < n; u++ {
			want := g.Neighbors(u)
			got := c.Neighbors(u)
			if len(want) != len(got) {
				t.Fatalf("node %d: CSR degree %d, graph degree %d", u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d neighbor %d: CSR %d, graph %d", u, i, got[i], want[i])
				}
				if got[i] == int32(u) {
					t.Fatalf("self loop survived at node %d", u)
				}
			}
		}
	})
}

// Edges returns the number of stored adjacency entries (twice the edge
// count of the undirected source graph).
func (c *CSR) Edges() int64 { return int64(c.rowPtr[len(c.rowPtr)-1]) }

// Degree returns the degree of node u.
func (c *CSR) Degree(u int) int { return int(c.rowPtr[u+1] - c.rowPtr[u]) }

// MaxDegree returns the largest degree in the graph (0 on an empty one).
func (c *CSR) MaxDegree() int {
	max := 0
	for u, n := 0, c.N(); u < n; u++ {
		if d := c.Degree(u); d > max {
			max = d
		}
	}
	return max
}
