package routing

import (
	"testing"

	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/stats"
	"arq/internal/trace"
)

func lineGraph(n int) *overlay.Graph {
	g := overlay.NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

func TestFloodRouteExcludesUpstream(t *testing.T) {
	nbrs := []int32{1, 2, 3}
	out := Flood{}.Route(0, 2, peer.Meta{}, nbrs)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	for _, v := range out {
		if v == 2 {
			t.Fatal("forwarded back to upstream")
		}
	}
	if got := (Flood{}).Route(0, peer.NoUpstream, peer.Meta{}, nbrs); len(got) != 3 {
		t.Fatalf("origin flood = %v", got)
	}
}

func TestRandomWalkCounts(t *testing.T) {
	r := &RandomWalk{K: 3, RNG: stats.NewRNG(1)}
	nbrs := []int32{1, 2, 3, 4, 5}
	out := r.Route(0, peer.NoUpstream, peer.Meta{}, nbrs)
	if len(out) != 3 {
		t.Fatalf("origin released %d walkers", len(out))
	}
	seen := map[int32]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatal("duplicate walker target")
		}
		seen[v] = true
	}
	// Intermediate: exactly one, not the sender.
	for i := 0; i < 100; i++ {
		mid := r.Route(0, 2, peer.Meta{}, nbrs)
		if len(mid) != 1 || mid[0] == 2 {
			t.Fatalf("intermediate forward = %v", mid)
		}
	}
	// Dead end with only the sender available: must step back.
	back := r.Route(0, 9, peer.Meta{}, []int32{9})
	if len(back) != 1 || back[0] != 9 {
		t.Fatalf("dead-end forward = %v", back)
	}
}

func TestRandomWalkKLargerThanDegree(t *testing.T) {
	r := &RandomWalk{K: 10, RNG: stats.NewRNG(2)}
	out := r.Route(0, peer.NoUpstream, peer.Meta{}, []int32{1, 2})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestAssocLearnsAndRoutes(t *testing.T) {
	a := NewAssoc(AssocConfig{TopK: 1, Threshold: 2, Decay: 0.5, DecayEvery: 1000})
	nbrs := []int32{10, 11, 12}
	q := peer.Meta{Category: 3}

	// Uncovered: floods.
	if got := a.Route(0, 5, q, nbrs); len(got) != 3 {
		t.Fatalf("uncovered route = %v", got)
	}
	// Learn: hits for queries from 5 keep coming back via 11.
	a.ObserveHit(0, 5, q, 11)
	if got := a.Route(0, 5, q, nbrs); len(got) != 3 {
		t.Fatal("sub-threshold support must not create a rule")
	}
	a.ObserveHit(0, 5, q, 11)
	got := a.Route(0, 5, q, nbrs)
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("covered route = %v", got)
	}
	// Other antecedents remain uncovered.
	if got := a.Route(0, 7, q, nbrs); len(got) != 3 {
		t.Fatalf("unrelated antecedent routed selectively: %v", got)
	}
	if a.RuleCount() != 1 {
		t.Fatalf("rule count = %d", a.RuleCount())
	}
}

func TestAssocTopKOrdering(t *testing.T) {
	a := NewAssoc(AssocConfig{TopK: 2, Threshold: 1, Decay: 0.5, DecayEvery: 1000})
	nbrs := []int32{10, 11, 12, 13}
	for i := 0; i < 5; i++ {
		a.ObserveHit(0, 5, peer.Meta{}, 12)
	}
	for i := 0; i < 3; i++ {
		a.ObserveHit(0, 5, peer.Meta{}, 10)
	}
	a.ObserveHit(0, 5, peer.Meta{}, 13)
	got := a.Route(0, 5, peer.Meta{}, nbrs)
	if len(got) != 2 || got[0] != 12 || got[1] != 10 {
		t.Fatalf("top-2 = %v", got)
	}
}

func TestAssocStrictDropsUncovered(t *testing.T) {
	cfg := DefaultAssocConfig()
	cfg.Strict = true
	a := NewAssoc(cfg)
	if got := a.Route(0, 5, peer.Meta{}, []int32{1, 2}); got != nil {
		t.Fatalf("strict uncovered route = %v", got)
	}
	// FloodPhase overrides strictness.
	got := a.Route(0, 5, peer.Meta{FloodPhase: true}, []int32{1, 2})
	if len(got) != 2 {
		t.Fatalf("flood-phase route = %v", got)
	}
}

// The simulator's routers and the live servent learn under the same
// constants, written once in core.
func TestDefaultAssocConfigLearnsAsCoreDoes(t *testing.T) {
	got, want := DefaultAssocConfig(), core.DefaultLearnerConfig()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Threshold", got.Threshold, want.Threshold},
		{"Decay", got.Decay, want.Decay},
		{"DecayEvery", float64(got.DecayEvery), float64(want.DecayEvery)},
		{"Floor", got.Floor, want.Floor},
	} {
		if f.got != f.want {
			t.Errorf("DefaultAssocConfig().%s = %v, core.DefaultLearnerConfig() has %v", f.name, f.got, f.want)
		}
	}
	if got.Publish != want.Publish.Policy {
		t.Errorf("DefaultAssocConfig().Publish = %v, core.DefaultLearnerConfig() has %v", got.Publish, want.Publish.Policy)
	}
}

func TestAssocDecayExpiresRules(t *testing.T) {
	a := NewAssoc(AssocConfig{TopK: 1, Threshold: 2, Decay: 0.25, DecayEvery: 1})
	a.ObserveHit(0, 5, peer.Meta{}, 11) // decays immediately to 0.25 -> deleted
	if a.RuleCount() != 0 {
		t.Fatalf("rules = %d", a.RuleCount())
	}
}

func TestAssocSelfHitNotLearned(t *testing.T) {
	a := NewAssoc(DefaultAssocConfig())
	a.ObserveHit(4, 5, peer.Meta{}, 4) // the node itself matched
	if a.RuleCount() != 0 {
		t.Fatal("self hit must not create a rule")
	}
}

func TestRoutingIndexPrefersContentDirection(t *testing.T) {
	// 1 - 0 - 2 - 3(x2 docs of category 1)
	g := overlay.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	hosted := func(u int) []trace.InterestID {
		if u == 3 {
			return []trace.InterestID{1, 1}
		}
		return nil
	}
	idx := BuildRoutingIndices(g, hosted, 3, 1)
	got := idx[0].Route(0, peer.NoUpstream, peer.Meta{Category: 1}, g.Neighbors(0))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("route = %v, want [2]", got)
	}
	// No information for category 0: falls back to flooding.
	got = idx[0].Route(0, peer.NoUpstream, peer.Meta{Category: 0}, g.Neighbors(0))
	if len(got) != 2 {
		t.Fatalf("fallback = %v", got)
	}
}

func TestRoutingIndexHorizonLimits(t *testing.T) {
	g := lineGraph(6)
	hosted := func(u int) []trace.InterestID {
		if u == 5 {
			return []trace.InterestID{0}
		}
		return nil
	}
	idx := BuildRoutingIndices(g, hosted, 2, 1)
	// Node 0 cannot see node 5 within horizon 2: flood fallback.
	got := idx[0].Route(0, peer.NoUpstream, peer.Meta{Category: 0}, g.Neighbors(0))
	if len(got) != 1 { // line graph: node 0 has one neighbor anyway
		t.Fatalf("route = %v", got)
	}
	idx4 := BuildRoutingIndices(g, hosted, 5, 1)
	got = idx4[3].Route(3, 2, peer.Meta{Category: 0}, g.Neighbors(3))
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("route toward content = %v", got)
	}
}

func netFixture(seed uint64, n int) (*overlay.Graph, *content.Model) {
	rng := stats.NewRNG(seed)
	g := overlay.GnutellaLike(rng, n)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	return g, m
}

func TestExpandingRingCheaperThanFlood(t *testing.T) {
	g, m := netFixture(21, 600)
	ef := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	er := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	flood := peer.Summarize(RunWorkload(stats.NewRNG(3), &OneShot{Label: "flood", E: ef, TTL: 7}, ef, 300))
	ring := peer.Summarize(RunWorkload(stats.NewRNG(3), &ExpandingRing{E: er, Start: 1, Step: 2, Max: 7}, er, 300))
	if ring.AvgMessages >= flood.AvgMessages {
		t.Fatalf("expanding ring (%.0f) not cheaper than flood (%.0f)",
			ring.AvgMessages, flood.AvgMessages)
	}
	if ring.SuccessRate < flood.SuccessRate-0.05 {
		t.Fatalf("expanding ring lost too much success: %.2f vs %.2f",
			ring.SuccessRate, flood.SuccessRate)
	}
}

func TestAssocReducesTrafficAtHighSuccess(t *testing.T) {
	g, m := netFixture(22, 800)
	ef := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	ea := flat.NewEngine(g, m, func(u int) peer.Router { return NewAssoc(DefaultAssocConfig()) })
	// Warm the rules, then measure.
	RunWorkload(stats.NewRNG(4), &OneShot{Label: "assoc", E: ea, TTL: 7}, ea, 4000)
	flood := peer.Summarize(RunWorkload(stats.NewRNG(5), &OneShot{Label: "flood", E: ef, TTL: 7}, ef, 500))
	assoc := peer.Summarize(RunWorkload(stats.NewRNG(5), &OneShot{Label: "assoc", E: ea, TTL: 7}, ea, 500))
	if assoc.AvgMessages > 0.6*flood.AvgMessages {
		t.Fatalf("assoc %.0f msgs vs flood %.0f: not a considerable reduction",
			assoc.AvgMessages, flood.AvgMessages)
	}
	if assoc.SuccessRate < 0.95 {
		t.Fatalf("assoc success = %.3f", assoc.SuccessRate)
	}
}

func TestShortcutsLearn(t *testing.T) {
	g, m := netFixture(23, 600)
	e := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	s := NewShortcuts(e, 7, 5, 10)
	RunWorkload(stats.NewRNG(6), s, e, 4000)
	agg := peer.Summarize(RunWorkload(stats.NewRNG(7), s, e, 500))
	ef := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	flood := peer.Summarize(RunWorkload(stats.NewRNG(7), &OneShot{Label: "flood", E: ef, TTL: 7}, ef, 500))
	if agg.AvgMessages > 0.5*flood.AvgMessages {
		t.Fatalf("shortcuts %.0f msgs vs flood %.0f", agg.AvgMessages, flood.AvgMessages)
	}
	if agg.SuccessRate < flood.SuccessRate-0.02 {
		t.Fatalf("shortcuts success %.3f vs flood %.3f", agg.SuccessRate, flood.SuccessRate)
	}
}

func TestAssocTwoPhaseNeverLosesContent(t *testing.T) {
	g, m := netFixture(24, 500)
	cfg := DefaultAssocConfig()
	cfg.Strict = true
	e := flat.NewEngine(g, m, func(u int) peer.Router { return NewAssoc(cfg) })
	two := &AssocTwoPhase{E: e, TTL: 7}
	ef := flat.NewEngine(g, m, func(u int) peer.Router { return Flood{} })
	for i := 0; i < 300; i++ {
		rng := stats.NewRNG(uint64(1000 + i))
		origin := rng.Intn(g.N())
		cat := m.DrawQuery(rng, origin)
		st := two.Search(origin, cat)
		fl := ef.RunQuery(origin, cat, 7)
		if fl.Found && !st.Found {
			t.Fatalf("two-phase missed content flood finds (origin %d cat %d)", origin, cat)
		}
	}
}
