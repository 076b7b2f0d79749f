package routing

import (
	"testing"

	"arq/internal/content"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/stats"
	"arq/internal/trace"
)

func TestSuperPeerLocalIndexHit(t *testing.T) {
	rng := stats.NewRNG(31)
	// All nodes attach to few supers; make content explicit.
	hosts := map[int][]trace.InterestID{}
	model := content.Explicit(40, 4, hosts)
	sp, err := NewSuperPeerNetwork(rng, model, 40, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Plant content on a member of the origin's own cluster.
	origin := 20
	home := sp.leafOf[origin]
	var member int = -1
	for u := 4; u < 40; u++ {
		if u != origin && sp.leafOf[u] == home {
			member = u
			break
		}
	}
	if member < 0 {
		t.Skip("no cluster sibling; unlucky partition")
	}
	sp.indexed[home][1] = append(sp.indexed[home][1], int32(member))
	st := sp.Search(origin, 1)
	if !st.Found || st.FirstHitHops != 1 {
		t.Fatalf("local index hit = %+v", st)
	}
	// One leaf->super query plus one response.
	if st.QueryMessages != 1 || st.HitMessages != 1 {
		t.Fatalf("local hit cost = %+v", st)
	}
}

func TestSuperPeerTierFlood(t *testing.T) {
	rng := stats.NewRNG(32)
	model := content.Explicit(30, 4, map[int][]trace.InterestID{29: {2}})
	sp, err := NewSuperPeerNetwork(rng, model, 30, 5, 2.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Choose an origin in a different cluster than node 29.
	origin := -1
	for u := 5; u < 30; u++ {
		if sp.leafOf[u] != sp.leafOf[29] {
			origin = u
			break
		}
	}
	if origin < 0 {
		t.Skip("everything in one cluster")
	}
	st := sp.Search(origin, 2)
	if !st.Found {
		t.Fatalf("tier flood missed indexed content: %+v", st)
	}
	if st.FirstHitHops < 2 {
		t.Fatalf("remote content should cost >= 2 hops: %+v", st)
	}
	if st.QueryMessages <= 1 {
		t.Fatalf("tier flood sent no tier messages: %+v", st)
	}
}

func TestSuperPeerMiss(t *testing.T) {
	rng := stats.NewRNG(33)
	model := content.Explicit(20, 4, nil)
	sp, err := NewSuperPeerNetwork(rng, model, 20, 4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	st := sp.Search(10, 3)
	if st.Found {
		t.Fatalf("found nonexistent content: %+v", st)
	}
	if st.QueryMessages == 0 {
		t.Fatal("miss should still cost tier messages")
	}
}

func TestSuperPeerValidation(t *testing.T) {
	model := content.Explicit(5, 2, nil)
	if _, err := NewSuperPeerNetwork(stats.NewRNG(1), model, 5, 0, 2, 5); err == nil {
		t.Fatal("nSupers=0 accepted")
	}
	if _, err := NewSuperPeerNetwork(stats.NewRNG(1), model, 5, 9, 2, 5); err == nil {
		t.Fatal("nSupers>n accepted")
	}
}

func TestSuperPeerCheaperThanFlatFlood(t *testing.T) {
	rng := stats.NewRNG(34)
	g, model := netFixture(35, 800)
	sp, err := NewSuperPeerNetwork(rng, model, 800, 40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	ef := flat.NewEngine(g, model, func(u int) peer.Router { return Flood{} })
	flood := peer.Summarize(RunWorkload(stats.NewRNG(4), &OneShot{Label: "flood", E: ef, TTL: 7}, ef, 300))
	super := peer.Summarize(runSuperWorkload(stats.NewRNG(4), sp, model, 800, 300))
	if super.AvgMessages >= flood.AvgMessages/2 {
		t.Fatalf("super-peer %.0f msgs vs flat flood %.0f", super.AvgMessages, flood.AvgMessages)
	}
	if super.SuccessRate < flood.SuccessRate-0.05 {
		t.Fatalf("super-peer success %.3f vs flood %.3f", super.SuccessRate, flood.SuccessRate)
	}
}

// runSuperWorkload mirrors RunWorkload for a searcher with no engine.
func runSuperWorkload(rng *stats.RNG, s Searcher, model *content.Model, n, nq int) []peer.Stats {
	out := make([]peer.Stats, 0, nq)
	for i := 0; i < nq; i++ {
		origin := rng.Intn(n)
		out = append(out, s.Search(origin, model.DrawQuery(rng, origin)))
	}
	return out
}
