package overlay

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"arq/internal/stats"
)

func TestCSREmptyAndIsolated(t *testing.T) {
	for _, g := range []*Graph{
		NewGraph(0),
		NewGraph(5), // degree-0 nodes: no edges at all
		fromEdges(5, []int32{0, 3, 3, 4}),
		// Empty rows ahead of a row that starts with a nonzero column:
		// their pointer equals the next row's, and TouchCol must not
		// read into it.
		fromEdges(4, []int32{2, 3}),
		GnutellaLike(stats.NewRNG(2), 200),
	} {
		for u := 0; u < g.N(); u++ {
			first := int32(0)
			if row := g.Neighbors(u); len(row) > 0 {
				first = row[0]
			}
			if got := g.TouchCol(int32(u)); got != first {
				t.Fatalf("%v node %d: TouchCol = %d, want %d (first neighbor, 0 if isolated)", g, u, got, first)
			}
		}
	}
	g := fromEdges(5, []int32{0, 3, 3, 4})
	if g.Degree(1) != 0 || g.Degree(2) != 0 || g.Degree(3) != 2 || g.M() != 2 {
		t.Fatalf("degrees %d %d %d, m = %d", g.Degree(1), g.Degree(2), g.Degree(3), g.M())
	}
}

// TestCSRQuickEquivalence is the property test of the generators: for
// random seeds and sizes, each one's graph equals, row for row, the
// nested-slice graph its edge-by-edge build used to grow (nestedRandom,
// nestedWattsStrogatz and nestedGnutellaLike below are those builds).
func TestCSRQuickEquivalence(t *testing.T) {
	f := func(seed uint64, rawN uint8, kind uint8) bool {
		n := int(rawN%200) + 5
		var g *Graph
		var r *nested
		switch kind % 3 {
		case 0:
			g, r = GnutellaLike(stats.NewRNG(seed), n), nestedGnutellaLike(stats.NewRNG(seed), n)
		case 1:
			deg := float64(seed%8) + 0.5
			g, r = Random(stats.NewRNG(seed), n, deg), nestedRandom(stats.NewRNG(seed), n, deg)
		default:
			g, r = WattsStrogatz(stats.NewRNG(seed), n, 4, 0.3), nestedWattsStrogatz(stats.NewRNG(seed), n, 4, 0.3)
		}
		sameAdjacency(t, g, r, "as built")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 90, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestEditLeavesOtherRows: an edit of {u, v} rewrites only u's and v's
// rows, so a row returned for any other node before the edit keeps its
// values after it (a move to the tail, a rewrite in place or a rebuild of
// the arena alike), and every row comes back capped at its end, so an
// append to one can never write into the next.
func TestEditLeavesOtherRows(t *testing.T) {
	const n = 50
	g := Random(stats.NewRNG(3), n, 4)
	rng := stats.NewRNG(4)
	rows, want := make([][]int32, n), make([][]int32, n)
	for i := 0; i < 400; i++ {
		for w := range rows {
			rows[w] = g.Neighbors(w)
			want[w] = slices.Clone(rows[w])
			if cap(rows[w]) != len(rows[w]) {
				t.Fatalf("edit %d: row %d of %d has capacity %d", i, w, len(rows[w]), cap(rows[w]))
			}
		}
		u, v := rng.Intn(n), rng.Intn(n)
		switch row := g.Neighbors(u); {
		case i%2 == 0 || len(row) == 0:
			g.AddEdge(u, v)
		default:
			v = int(row[rng.Intn(len(row))])
			g.RemoveEdge(u, v)
		}
		for w := range rows {
			if w != u && w != v && !slices.Equal(rows[w], want[w]) {
				t.Fatalf("edit %d of {%d, %d} changed row %d returned before it: %v, was %v", i, u, v, w, rows[w], want[w])
			}
		}
	}
}

// FuzzCSRBuilder feeds arbitrary edge lists — duplicate edges, self
// loops, isolated nodes — to the nested reference; the edges it accepts,
// in order, are the edge list the builder compresses, and every row
// must come out as the reference grew it.
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})             // self loop only
	f.Add([]byte{0, 1, 0, 1, 1, 0}) // duplicate edge both directions
	f.Add([]byte{5, 9, 2, 2, 7, 1, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16 // small universe so duplicates are frequent
		r := &nested{adj: make([][]int32, n)}
		var ends []int32
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if r.addEdge(u, v) {
				ends = append(ends, int32(u), int32(v))
			}
		}
		sameAdjacency(t, fromEdges(n, ends), r, "as built")
	})
}

// nestedConnect is ensureConnected as the nested graph ran it: join each
// component, in order of its lowest node, to the next by an edge between
// uniform members, drawn from the components' depth-first orders.
func (r *nested) connect(rng *stats.RNG) {
	seen := make([]bool, len(r.adj))
	var comps [][]int
	for s := range r.adj {
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
			for _, w := range r.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	for i := 1; i < len(comps); i++ {
		r.addEdge(comps[i-1][rng.Intn(len(comps[i-1]))], comps[i][rng.Intn(len(comps[i]))])
	}
}

func nestedRandom(rng *stats.RNG, n int, avgDeg float64) *nested {
	r := &nested{adj: make([][]int32, n)}
	if n <= 1 {
		return r
	}
	target := min(int(float64(n)*avgDeg/2), n*(n-1)/2)
	for r.m < target {
		u := rng.Intn(n)
		v := rng.Intn(n)
		r.addEdge(u, v)
	}
	r.connect(rng)
	return r
}

func nestedWattsStrogatz(rng *stats.RNG, n, k int, beta float64) *nested {
	r := &nested{adj: make([][]int32, n)}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			if !rng.Bool(beta) {
				r.addEdge(u, (u+j)%n)
				continue
			}
			for attempts := 0; attempts < 20; attempts++ {
				if w := rng.Intn(n); w != u && r.addEdge(u, w) {
					break
				}
			}
		}
	}
	r.connect(rng)
	return r
}

func nestedGnutellaLike(rng *stats.RNG, n int) *nested {
	const m = 2
	r := &nested{adj: make([][]int32, n)}
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			r.addEdge(u, v)
		}
	}
	var repeated []int32
	for u := 0; u <= m; u++ {
		for range r.adj[u] {
			repeated = append(repeated, int32(u))
		}
	}
	for u := m + 1; u < n; u++ {
		attached := 0
		for attempts := 0; attached < m && attempts < 50*m; attempts++ {
			if t := int(repeated[rng.Intn(len(repeated))]); r.addEdge(u, t) {
				attached++
				repeated = append(repeated, int32(u), int32(t))
			}
		}
		for attached < m {
			if t := rng.Intn(u); r.addEdge(u, t) {
				attached++
				repeated = append(repeated, int32(u), int32(t))
			}
		}
	}
	for i := 0; i < n/10; i++ {
		r.addEdge(rng.Intn(n), rng.Intn(n))
	}
	return r
}
