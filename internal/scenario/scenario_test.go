package scenario_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/peer/oracle"
	"arq/internal/routing"
	"arq/internal/scenario"
	"arq/internal/stats"
)

// engineMaker builds a query engine over a freshly-built substrate.
type engineMaker func(g *overlay.Graph, m *content.Model, f func(u int) peer.Router) peer.QueryEngine

func seqMaker(g *overlay.Graph, m *content.Model, f func(u int) peer.Router) peer.QueryEngine {
	return oracle.NewEngine(g, m, f)
}

func flatMaker(g *overlay.Graph, m *content.Model, f func(u int) peer.Router) peer.QueryEngine {
	return flat.NewEngine(g, m, f)
}

// runPreset drives one preset scenario's named strategy on the given
// engine maker: warm-up if the strategy learns, then nQueries measured.
func runPreset(t *testing.T, preset, stratName string, n, warm, nQueries int, mk engineMaker) []peer.Stats {
	t.Helper()
	sc, err := scenario.ByName(preset, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, m := sc.Build()
	for _, strat := range scenario.Strategies(g, m, sc.Query, sc.Seed) {
		if strat.Name != stratName {
			continue
		}
		search, eng, newRouter := strat.Build(func(f func(u int) peer.Router) peer.QueryEngine {
			return mk(g, m, f)
		})
		r := scenario.NewRunner(sc, g, m, eng, search, newRouter)
		if warm > 0 {
			r.Block(warm) // learning routers accumulate state
		}
		return r.Block(nQueries)
	}
	t.Fatalf("strategy %q not in Strategies", stratName)
	return nil
}

func sumTotal(all []peer.Stats) int {
	t := 0
	for _, s := range all {
		t += s.Total()
	}
	return t
}

// Top-k early termination must (a) produce identical per-query stats on
// the sequential and flat engines, and (b) measurably cut messages per
// query against the TTL-exhaust baseline — the point of stopping at k
// answers.
func TestTopKEquivalenceAndSavings(t *testing.T) {
	const n, q = 400, 300
	topSeq := runPreset(t, "top-k", "flood", n, 0, q, seqMaker)
	topFlat := runPreset(t, "top-k", "flood", n, 0, q, flatMaker)
	for i := range topSeq {
		if got, want := toRec(topFlat[i]), toRec(topSeq[i]); !recEqual(got, want) {
			t.Fatalf("top-k query %d: flat %+v != seq %+v", i, got, want)
		}
	}
	base := runPreset(t, "baseline", "flood", n, 0, q, seqMaker)
	topMsgs, baseMsgs := sumTotal(topSeq), sumTotal(base)
	if topMsgs >= baseMsgs {
		t.Fatalf("top-k sent %d messages, TTL-exhaust %d: early termination saved nothing", topMsgs, baseMsgs)
	}
	// Budgeted hits can't exceed k.
	for i, s := range topSeq {
		if s.Hits > 3 {
			t.Fatalf("top-k query %d collected %d hits > budget 3", i, s.Hits)
		}
	}
}

// Two runners over the same scenario must replay identical workloads
// and identical dynamics, engine-independently.
func TestRunnerDeterministicAcrossEngines(t *testing.T) {
	const n, q = 200, 150
	a := runPreset(t, "churn", "flood", n, 0, q, seqMaker)
	b := runPreset(t, "churn", "flood", n, 0, q, flatMaker)
	for i := range a {
		if got, want := toRec(b[i]), toRec(a[i]); !recEqual(got, want) {
			t.Fatalf("churn query %d: flat %+v != seq %+v", i, got, want)
		}
	}
}

// An overlay whose association routers are one routing.NewAssocs slab
// answers every query exactly as one built from a standalone
// routing.NewAssoc per node, and leaves every node serving the same
// snapshot, version included. Under churn a departed node's slot of the
// slab is emptied in place (Assoc.Reset) where the per-node side swaps in
// a new router: a reset router is a new one.
func TestAssocSlabMatchesPerNodeRouters(t *testing.T) {
	const n, q = 300, 400
	cfg := routing.DefaultAssocConfig()
	// run returns the per-query stats, the router each node ends up with,
	// and how many routers churn replaced.
	run := func(preset string, slab bool) ([]peer.Stats, []*routing.Assoc, int) {
		sc, err := scenario.ByName(preset, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		g, m := sc.Build()
		cur, rejoined := make([]*routing.Assoc, g.N()), 0
		if slab {
			as := routing.NewAssocs(g.N(), cfg)
			for u := range as {
				cur[u] = &as[u]
			}
		} else {
			for u := range cur {
				cur[u] = routing.NewAssoc(cfg)
			}
		}
		eng := flat.NewEngine(g, m, func(u int) peer.Router { return cur[u] })
		search := &routing.OneShot{Label: "assoc", E: eng, TTL: sc.Query.TTL, TopK: sc.Query.TopK}
		r := scenario.NewRunner(sc, g, m, eng, search, func(u int) peer.Router {
			if slab {
				cur[u].Reset()
			} else {
				cur[u] = routing.NewAssoc(cfg)
			}
			rejoined++
			return cur[u]
		})
		return r.Block(q), cur, rejoined
	}
	for _, preset := range []string{"baseline", "churn"} {
		got, slab, rejoined := run(preset, true)
		want, single, _ := run(preset, false)
		if (rejoined > 0) != (preset == "churn") {
			t.Fatalf("%s: %d routers replaced mid-run", preset, rejoined)
		}
		for i := range want {
			if !recEqual(toRec(got[i]), toRec(want[i])) {
				t.Fatalf("%s query %d: slab %+v, per-node routers %+v", preset, i, toRec(got[i]), toRec(want[i]))
			}
		}
		for u := range single {
			if a, b := slab[u].Snapshot(), single[u].Snapshot(); !bytes.Equal(a.Marshal(), b.Marshal()) {
				t.Fatalf("%s node %d: slab serves v%d with %d rules, per-node router v%d with %d",
					preset, u, a.Version(), a.Len(), b.Version(), b.Len())
			}
		}
	}
}

// Role-split scenarios drive origins only through query-issuing nodes,
// and every strategy list preset builds and answers queries.
func TestPresetsSane(t *testing.T) {
	names := scenario.Names()
	if len(names) != 5 {
		t.Fatalf("Names() = %v, want 5 presets", names)
	}
	for _, name := range names {
		res := runPreset(t, name, "flood", 150, 0, 60, seqMaker)
		if len(res) != 60 {
			t.Fatalf("%s: got %d stats", name, len(res))
		}
		found := 0
		for _, s := range res {
			if s.Found {
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: flood found nothing in 60 queries", name)
		}
	}
	if _, err := scenario.ByName("nope", 100, 1); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("ByName(nope) error %v should list valid names", err)
	}
}

// Bystanders never originate queries in a role-split scenario.
func TestRoleSplitOrigins(t *testing.T) {
	sc, err := scenario.ByName("communities", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, m := sc.Build()
	_ = g
	bystanders := 0
	for u := 0; u < 300; u++ {
		if m.Role(u) == content.RoleBystander {
			bystanders++
		}
	}
	if bystanders == 0 {
		t.Skip("no bystanders drawn at this seed")
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 2000; i++ {
		u := m.DrawOrigin(rng, 300)
		if m.Role(u) == content.RoleBystander {
			t.Fatalf("DrawOrigin returned bystander %d", u)
		}
	}
}

// Free-rider marking empties the libraries of marked nodes only, and
// topic picks stay inside the universe.
func TestClusterPlanCompat(t *testing.T) {
	fr := scenario.ClusterPlan{N: 64, Seed: 7, FreeRiderFrac: 0.5}
	marked := 0
	for id := 0; id < 64; id++ {
		if fr.FreeRider(id) {
			marked++
			if fr.Library(id) != nil {
				t.Fatalf("free rider %d has a library", id)
			}
		} else if len(fr.Library(id)) == 0 {
			t.Fatalf("sharer %d has empty library", id)
		}
	}
	if marked < 16 || marked > 48 {
		t.Fatalf("free-rider marking at frac 0.5 marked %d/64", marked)
	}

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tp := fr.PickTopic(r, 5)
		if tp < 0 || tp >= fr.Universe() {
			t.Fatalf("PickTopic out of range: %d", tp)
		}
	}
}
