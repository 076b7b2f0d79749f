// Package adapt implements the paper's future-work topology adaptation
// (§VI): "instead of forwarding query messages to a neighbor, which will
// in turn forward the message on to one of its neighbors, a node could ask
// its neighbors to which node they would forward queries from it. Once the
// node has this information, it could attempt to make this third node a
// new neighbor, which would result in queries being forwarded in the
// future requiring one less hop."
//
// Rewire runs that protocol over a learned overlay: for each node u and
// each neighbor v, it asks v's association-rule state for the top
// consequents of antecedent u and connects u directly to them, subject to
// a per-node budget and a degree cap. The rewire example and ablation
// bench show the resulting drop in first-hit hop counts.
package adapt

import "arq/internal/overlay"

// ConsequentFunc answers, for node v, which nodes v would forward queries
// arriving from antecedent to — best first. routing.(*Assoc).Consequents
// satisfies it via a small closure.
type ConsequentFunc func(v int, antecedent int) []int32

// Options bound a rewiring pass.
type Options struct {
	// MaxNewPerNode caps shortcut edges added at any one node (as both
	// endpoints), keeping degree growth bounded. Default 2.
	MaxNewPerNode int
	// MaxDegree refuses to attach new edges to nodes at or above this
	// degree. Default unlimited.
	MaxDegree int
	// OnAdd, when set, is invoked for every added edge with the node
	// that initiated it, the neighbor that was consulted, and the new
	// neighbor — so the caller can seed the initiator's rules toward the
	// shortcut (routing.(*Assoc).AdoptShortcut).
	OnAdd func(u int, consulted, added int32)
}

// Rewire performs one adaptation pass over every node of g, adding
// shortcut edges u—w where some neighbor v of u reports w as its top
// consequent for queries from u. Returns the edges added. g is modified
// in place.
func Rewire(g *overlay.Graph, consequents ConsequentFunc, opt Options) [][2]int {
	if opt.MaxNewPerNode <= 0 {
		opt.MaxNewPerNode = 2
	}
	added := make([]int, g.N())
	var out [][2]int
	for u := 0; u < g.N(); u++ {
		// Snapshot u's neighbors: we mutate adjacency while iterating.
		nbrs := append([]int32(nil), g.Neighbors(u)...)
		for _, v := range nbrs {
			if added[u] >= opt.MaxNewPerNode {
				break
			}
			for _, w32 := range consequents(int(v), u) {
				w := int(w32)
				if w == u || g.HasEdge(u, w) {
					continue
				}
				if added[w] >= opt.MaxNewPerNode {
					continue
				}
				if opt.MaxDegree > 0 &&
					(g.Degree(u) >= opt.MaxDegree || g.Degree(w) >= opt.MaxDegree) {
					continue
				}
				if g.AddEdge(u, w) {
					added[u]++
					added[w]++
					out = append(out, [2]int{u, w})
					if opt.OnAdd != nil {
						opt.OnAdd(u, v, w32)
					}
				}
				break // only the top usable consequent per neighbor
			}
		}
	}
	return out
}
