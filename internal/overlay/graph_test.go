package overlay

import (
	"fmt"
	"slices"
	"testing"

	"arq/internal/stats"
)

// nested is the reference adjacency: one slice per node, grown by append
// and shrunk by moving the last entry into the hole, as Graph kept its
// rows before they were compressed into one column array.
type nested struct {
	adj [][]int32
	m   int
}

func newNested(g *Graph) *nested {
	r := &nested{adj: make([][]int32, g.N()), m: g.M()}
	for u := range r.adj {
		r.adj[u] = slices.Clone(g.Neighbors(u))
	}
	return r
}

func (r *nested) hasEdge(u, v int) bool {
	return slices.Contains(r.adj[u], int32(v))
}

func (r *nested) addEdge(u, v int) bool {
	if u == v || r.hasEdge(u, v) {
		return false
	}
	r.adj[u] = append(r.adj[u], int32(v))
	r.adj[v] = append(r.adj[v], int32(u))
	r.m++
	return true
}

func (r *nested) removeEdge(u, v int) bool {
	if !r.hasEdge(u, v) {
		return false
	}
	r.adj[u] = removeVal(r.adj[u], int32(v))
	r.adj[v] = removeVal(r.adj[v], int32(u))
	r.m--
	return true
}

// removeVal removes v from s by moving the last entry into its slot.
func removeVal(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// editGraph builds one of the graphs the edit tests start from: each
// generator, and an empty graph whose rows are all built by edits.
func editGraph(kind int, seed uint64, n int) *Graph {
	rng := stats.NewRNG(seed)
	switch kind % 4 {
	case 0:
		return GnutellaLike(rng, max(n, 3))
	case 1:
		return Random(rng, n, 3)
	case 2:
		return WattsStrogatz(rng, max(n, 5), 4, 0.2)
	}
	return NewGraph(n)
}

// applyEdits runs ops on g and on the reference r alike, three bytes an
// edit: [0, u, v] adds {u, v}, [1, u, v] removes it, and [2, u, i]
// removes the edge to u's i-th neighbor in the reference, so removals
// find edges as often as additions make them. After every edit the two
// must agree on every row, in order, on M, on every Degree and on
// HasEdge for every pair.
func applyEdits(t *testing.T, g *Graph, r *nested, ops []byte) {
	t.Helper()
	n := g.N()
	for i := 0; i+2 < len(ops); i += 3 {
		u, v := int(ops[i+1])%n, int(ops[i+2])%n
		var got, want bool
		switch ops[i] % 3 {
		case 0:
			got, want = g.AddEdge(u, v), r.addEdge(u, v)
		case 2:
			if row := r.adj[u]; len(row) > 0 {
				v = int(row[int(ops[i+2])%len(row)])
			}
			fallthrough
		case 1:
			got, want = g.RemoveEdge(u, v), r.removeEdge(u, v)
		}
		if got != want {
			t.Fatalf("edit %d (%d on {%d, %d}): graph reports %v, reference %v", i/3, ops[i]%3, u, v, got, want)
		}
		sameAdjacency(t, g, r, fmt.Sprintf("after edit %d", i/3))
	}
}

// sameAdjacency asserts g equals the reference: node and edge counts,
// every row in order, every Degree and HasEdge for every pair.
func sameAdjacency(t *testing.T, g *Graph, r *nested, when string) {
	t.Helper()
	if g.N() != len(r.adj) || g.M() != r.m {
		t.Fatalf("%s: %d nodes and %d edges, reference %d and %d", when, g.N(), g.M(), len(r.adj), r.m)
	}
	for u := range r.adj {
		if !slices.Equal(g.Neighbors(u), r.adj[u]) {
			t.Fatalf("%s: row %d = %v, reference %v", when, u, g.Neighbors(u), r.adj[u])
		}
		if g.Degree(u) != len(r.adj[u]) {
			t.Fatalf("%s: Degree(%d) = %d, reference %d", when, u, g.Degree(u), len(r.adj[u]))
		}
		for v := range r.adj {
			if g.HasEdge(u, v) != r.hasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, reference %v", when, u, v, g.HasEdge(u, v), r.hasEdge(u, v))
			}
		}
	}
}

// TestGraphEditsMatchNested holds the compressed graph under edits to the
// nested-slice adjacency it replaced: a row copied out of the column
// array on its first edit must carry on element for element as the old
// append-grown row did.
func TestGraphEditsMatchNested(t *testing.T) {
	for kind := 0; kind < 4; kind++ {
		for seed := uint64(1); seed <= 3; seed++ {
			g := editGraph(kind, seed, 40)
			r := newNested(g)
			sameAdjacency(t, g, r, "as built")
			rng := stats.NewRNG(seed + 50)
			ops := make([]byte, 3*400)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			applyEdits(t, g, r, ops)
		}
	}
}

// FuzzGraphEdits is TestGraphEditsMatchNested on whatever graph and edit
// sequence the bytes spell.
func FuzzGraphEdits(f *testing.F) {
	f.Add(uint64(1), byte(0), []byte{2, 0, 0, 0, 0, 5, 1, 0, 5, 2, 3, 1})
	f.Add(uint64(7), byte(1), []byte{0, 1, 2, 0, 2, 1, 1, 2, 1, 0, 2, 1})
	f.Add(uint64(9), byte(3), []byte{0, 0, 1, 0, 1, 2, 2, 1, 0, 2, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed uint64, kind byte, ops []byte) {
		g := editGraph(int(kind), seed, 1+int(seed%48))
		applyEdits(t, g, newNested(g), ops)
	})
}
