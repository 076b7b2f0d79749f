package flat_test

import (
	"reflect"
	"slices"
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/peer/oracle"
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
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
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
// the oracle on a tiny overlay — the cheap always-on version of the
// golden equivalence test. Every field is compared, HitNodes in order
// (routing.Shortcuts learns from that order), at TTL 0 (the origin
// alone), TTL 1 (one hop, where the flood loop's termination test and
// the origin's own receipt meet) and TTL 5.
func TestFlatMatchesEngineSmall(t *testing.T) {
	rng := stats.NewRNG(21)
	g := overlay.GnutellaLike(rng, 120)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	seq := oracle.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })
	fl := flat.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })

	wrk := stats.NewRNG(3)
	for _, j := range peer.DrawWorkload(wrk, m, g.N(), 50) {
		for _, ttl := range []int{0, 1, 5} {
			a := seq.RunQuery(j.Origin, j.Category, ttl)
			b := fl.RunQuery(j.Origin, j.Category, ttl)
			if !sameStats(a, b) {
				t.Fatalf("origin %d cat %d ttl %d: oracle %+v != flat.Engine %+v", j.Origin, j.Category, ttl, a, b)
			}
		}
	}
}

// sameStats reports whether a and b agree on every peer.Stats field,
// HitNodes element for element and in order.
func sameStats(a, b peer.Stats) bool {
	if !slices.Equal(a.HitNodes, b.HitNodes) {
		return false
	}
	a.HitNodes, b.HitNodes = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestFloodNoPerMessageAllocation pins the package doc's claim: once a
// query from an origin has sized the frontier buffers, flooding from
// that origin again allocates nothing. The category is one no node
// hosts, because growing HitNodes is the only allocation a flood may
// make.
func TestFloodNoPerMessageAllocation(t *testing.T) {
	rng := stats.NewRNG(5)
	g := overlay.GnutellaLike(rng, 2000)
	m := content.Explicit(g.N(), 2, map[int][]trace.InterestID{7: {0}, 90: {0}})
	e := flat.NewEngine(g, m, func(int) peer.Router { return routing.Flood{} })
	const origin, none, ttl = 3, trace.InterestID(1), 7
	for i := 0; i < 3; i++ {
		e.RunQuery(origin, 0, ttl)
	}
	if st := e.RunQuery(origin, none, ttl); st.QueryMessages < g.N() || st.Hits != 0 {
		t.Fatalf("warm-up flood sent %d messages with %d hits; want a flood of the whole overlay and none", st.QueryMessages, st.Hits)
	}
	if allocs := testing.AllocsPerRun(50, func() { e.RunQuery(origin, none, ttl) }); allocs != 0 {
		t.Fatalf("a warm hitless flood allocates %.1f times per query, want 0", allocs)
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
		return routing.NewAssoc(routing.AssocConfig{TopK: 1})
	}
	fl := flat.NewEngine(g, m, newAssoc)
	seq := oracle.NewEngine(g, m, newAssoc)
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

	// Two floods teach node 1 both rules at support 2; the tie breaks on
	// the lower id, so the third query rides {0} -> {2} alone.
	query("learn 1", 5, 2)
	query("learn 2", 5, 2)
	query("ruled", 2, 1)

	g.RemoveEdge(1, 2)
	query("first consequent departed", 2, 1) // {0} -> {3} fills the slot

	g.RemoveEdge(1, 3)
	query("no consequent left", 3, 0) // flood to 4 and 5, as if uncovered
}
