// Rewire: the paper's §VI topology adaptation, shown at two scales.
//
// First the mechanism on a 5-node chain: the origin asks its neighbor
// where it would forward the origin's queries, connects directly to that
// node, and the next query takes one hop less — exactly the sentence in
// §VI. Then the aggregate effect on a sparse 1,000-node overlay.
package main

import (
	"fmt"

	"arq/internal/adapt"
	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

func main() {
	mechanism()
	fmt.Println()
	aggregate()
}

// mechanism demonstrates "one less hop" on a chain 0-1-2-3-4 where node 4
// hosts the content node 0 keeps asking for.
func mechanism() {
	g := overlay.NewGraph(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(i-1, i)
	}
	model := content.Explicit(5, 2, map[int][]trace.InterestID{4: {0}})
	assocs := routing.NewAssocs(5, routing.AssocConfig{TopK: 1})
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })

	// Node 0 queries repeatedly; rules form along the chain.
	for i := 0; i < 5; i++ {
		e.RunQuery(0, 0, 6)
	}
	before := e.RunQuery(0, 0, 6)
	fmt.Printf("chain 0-1-2-3-4, content at node 4\n")
	fmt.Printf("before adaptation: first hit after %d hops\n", before.FirstHitHops)

	// §VI: ask neighbor 1 where it forwards queries from 0, befriend that
	// node.
	added := adapt.Rewire(g, func(v, ante int) []int32 { return assocs[v].Consequents(ante) },
		adapt.Options{MaxNewPerNode: 1, OnAdd: func(u int, consulted, w int32) {
			assocs[u].AdoptShortcut(consulted, w)
			// The engine routes from its own adjacency snapshot.
			e.NeighborsChanged(u, g.Neighbors(u))
			e.NeighborsChanged(int(w), g.Neighbors(int(w)))
		}})
	fmt.Printf("adaptation added edges: %v\n", added)

	// Relearn over the new edge, then requery.
	for i := 0; i < 5; i++ {
		e.RunQuery(0, 0, 6)
	}
	after := e.RunQuery(0, 0, 6)
	fmt.Printf("after adaptation:  first hit after %d hops (one less per pass)\n", after.FirstHitHops)
}

// aggregate runs the adaptation over a sparse overlay and reports the
// population-level change.
func aggregate() {
	const (
		nodes = 1000
		ttl   = 9
		warm  = 12000
		nq    = 1500
	)
	rng := stats.NewRNG(99)
	g := overlay.Random(rng, nodes, 3.2)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	assocs := routing.NewAssocs(nodes, routing.DefaultAssocConfig())
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })
	search := &routing.OneShot{Label: "assoc", E: e, TTL: ttl}

	routing.RunWorkload(stats.NewRNG(1), search, e, warm)
	before := peer.Summarize(routing.RunWorkload(stats.NewRNG(2), search, e, nq))

	added := adapt.Rewire(g, func(v, ante int) []int32 { return assocs[v].Consequents(ante) },
		adapt.Options{MaxNewPerNode: 2, MaxDegree: 12, OnAdd: func(u int, consulted, w int32) {
			assocs[u].AdoptShortcut(consulted, w)
			// The engine routes from its own adjacency snapshot.
			e.NeighborsChanged(u, g.Neighbors(u))
			e.NeighborsChanged(int(w), g.Neighbors(int(w)))
		}})
	routing.RunWorkload(stats.NewRNG(3), search, e, warm)
	after := peer.Summarize(routing.RunWorkload(stats.NewRNG(2), search, e, nq))

	fmt.Printf("sparse overlay: %d nodes, %d edges; adaptation added %d shortcuts\n",
		nodes, g.M()-len(added), len(added))
	fmt.Printf("before: success=%.3f hit-hops=%.2f msgs/query=%.0f\n",
		before.SuccessRate, before.AvgHitHops, before.AvgMessages)
	fmt.Printf("after:  success=%.3f hit-hops=%.2f msgs/query=%.0f\n",
		after.SuccessRate, after.AvgHitHops, after.AvgMessages)
	fmt.Println("\nshortcut edges raise success and shave hops; the cost is a denser")
	fmt.Println("overlay, so fallback floods touch more edges — the trade-off a")
	fmt.Println("deployment would tune with Options.MaxNewPerNode and MaxDegree.")
}
