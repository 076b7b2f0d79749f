package flat_test

import (
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

// TestFlatFloodInvariant checks the structural flood identity on a
// connected graph with TTL >= diameter: every reached node forwards
// exactly once, so QueryMessages = 2M - N + 1 — and checks that the
// epoch-stamped dedup window resets correctly by running repeated
// queries through the same reused scratch arrays.
func TestFlatFloodInvariant(t *testing.T) {
	rng := stats.NewRNG(9)
	g := overlay.Random(rng, 400, 5)
	m := content.Build(rng.Split(), 400, content.DefaultConfig())
	e := flat.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })

	want := 2*g.M() - g.N() + 1
	for i := 0; i < 5; i++ {
		st := e.RunQuery(i, trace.InterestID(0), 64)
		if st.QueryMessages != want {
			t.Fatalf("query %d: QueryMessages = %d, want 2M-N+1 = %d", i, st.QueryMessages, want)
		}
		if st.NodesReached != g.N() {
			t.Fatalf("query %d: reached %d of %d nodes", i, st.NodesReached, g.N())
		}
		if st.Duplicates != want-(g.N()-1) {
			t.Fatalf("query %d: Duplicates = %d, want %d", i, st.Duplicates, want-(g.N()-1))
		}
	}
}

// TestFlatMatchesEngineSmall cross-checks per-query stats against
// peer.Engine on a tiny overlay — the cheap always-on version of the
// golden equivalence test.
func TestFlatMatchesEngineSmall(t *testing.T) {
	rng := stats.NewRNG(21)
	g := overlay.GnutellaLike(rng, 120)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	seq := peer.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })
	fl := flat.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })

	wrk := stats.NewRNG(3)
	for _, j := range peer.DrawWorkload(wrk, m, g.N(), 50) {
		a := seq.RunQuery(j.Origin, j.Category, 5)
		b := fl.RunQuery(j.Origin, j.Category, 5)
		if a.Found != b.Found || a.Hits != b.Hits || a.FirstHitHops != b.FirstHitHops ||
			a.QueryMessages != b.QueryMessages || a.HitMessages != b.HitMessages ||
			a.Duplicates != b.Duplicates || a.NodesReached != b.NodesReached {
			t.Fatalf("origin %d cat %d: peer.Engine %+v != flat.Engine %+v", j.Origin, j.Category, a, b)
		}
	}
}

// TestFlatAssocChurnedConsequent pins what routing.Assoc does when a rule
// outlives its link: node 1 learns {0} -> {2} and {0} -> {3}, then loses
// first the edge to 2 and then the edge to 3. A consequent that is no
// longer a neighbor is skipped and the next one takes its top-k slot; once
// no consequent is left the node floods exactly as an uncovered one does.
// The map engine, which reads the live graph, must agree query for query.
func TestFlatAssocChurnedConsequent(t *testing.T) {
	g := overlay.NewGraph(6)
	for _, v := range []int{0, 2, 3, 4, 5} {
		g.AddEdge(1, v)
	}
	const cat = trace.InterestID(0)
	m := content.Explicit(6, 1, map[int][]trace.InterestID{2: {cat}, 3: {cat}})
	newAssoc := func(int) peer.Router {
		return routing.NewAssoc(routing.AssocConfig{TopK: 1, Threshold: 2, Decay: 0.5, DecayEvery: 1 << 20})
	}
	fl := flat.NewEngine(g, m, newAssoc)
	seq := peer.NewEngine(g, m, newAssoc)
	const ttl = 2 // 0 -> 1 -> leaf; leaves never route
	query := func(step string, wantMsgs, wantHits int) {
		t.Helper()
		a, b := fl.RunQuery(0, cat, ttl), seq.RunQuery(0, cat, ttl)
		if a.QueryMessages != b.QueryMessages || a.Hits != b.Hits || a.HitMessages != b.HitMessages {
			t.Fatalf("%s: flat %+v != map %+v", step, a, b)
		}
		if a.QueryMessages != wantMsgs || a.Hits != wantHits {
			t.Fatalf("%s: %d query messages, %d hits; want %d, %d", step, a.QueryMessages, a.Hits, wantMsgs, wantHits)
		}
	}
	unlink := func(v int) {
		g.RemoveEdge(1, v)
		fl.NeighborsChanged(1, g.Neighbors(1))
		fl.NeighborsChanged(v, g.Neighbors(v))
	}

	// Two floods teach node 1 both rules at support 2; the tie breaks on
	// the lower id, so the third query rides {0} -> {2} alone.
	query("learn 1", 5, 2)
	query("learn 2", 5, 2)
	query("ruled", 2, 1)

	unlink(2)
	query("first consequent departed", 2, 1) // {0} -> {3} fills the slot

	unlink(3)
	query("no consequent left", 3, 0) // flood to 4 and 5, as if uncovered
}
