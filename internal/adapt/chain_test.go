package adapt_test

import (
	"reflect"
	"testing"

	"arq/internal/adapt"
	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/trace"
)

// The §VI sentence on a chain 0-1-2-3-4 whose node 4 hosts what node 0
// keeps asking for, run as deployed: association routers on the flat
// engine learn the chain, one Rewire pass lets every node befriend where
// its neighbour forwards its queries, and after relearning over the new
// edges the first hit comes one hop sooner (4 → 3).
func TestRewireChainSavesAHop(t *testing.T) {
	g := overlay.NewGraph(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(i-1, i)
	}
	model := content.Explicit(5, 2, map[int][]trace.InterestID{4: {0}})
	assocs := routing.NewAssocs(5, routing.AssocConfig{TopK: 1})
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })
	// query runs node 0's query five times to teach the rules along the
	// path, then once more to measure.
	query := func() peer.Stats {
		for i := 0; i < 5; i++ {
			e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 6})
		}
		return e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 6})
	}

	if st := query(); !st.Found || st.FirstHitHops != 4 {
		t.Fatalf("before rewiring: found %v after %d hops, want 4", st.Found, st.FirstHitHops)
	}
	added := adapt.Rewire(g, func(v, ante int) []int32 { return assocs[v].Consequents(ante) },
		adapt.Options{MaxNewPerNode: 1, OnAdd: func(u int, consulted, w int32) {
			assocs[u].AdoptShortcut(consulted, w)
		}})
	if want := [][2]int{{0, 2}, {1, 3}}; !reflect.DeepEqual(added, want) {
		t.Fatalf("one pass added %v, want %v", added, want)
	}
	if st := query(); !st.Found || st.FirstHitHops != 3 {
		t.Fatalf("after one pass: found %v after %d hops, want 3", st.Found, st.FirstHitHops)
	}
}
