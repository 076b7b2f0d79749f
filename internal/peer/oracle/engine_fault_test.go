package oracle_test

import (
	"reflect"
	"testing"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/peer/oracle"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

// mkFaultEngine builds a flood engine with inj installed (nil leaves
// the network perfect).
type mkFaultEngine func(g *overlay.Graph, m *content.Model, inj fault.Injector) peer.QueryEngine

// faultEngines is the table every test below runs over: the production
// engine and the oracle it is pinned to.
var faultEngines = []struct {
	name string
	mk   mkFaultEngine
}{
	{"flat", func(g *overlay.Graph, m *content.Model, inj fault.Injector) peer.QueryEngine {
		e := flat.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })
		e.Fault = inj
		return e
	}},
	{"oracle", func(g *overlay.Graph, m *content.Model, inj fault.Injector) peer.QueryEngine {
		e := oracle.NewEngine(g, m, func(u int) peer.Router { return routing.Flood{} })
		e.Fault = inj
		return e
	}},
}

// faultWorkload runs one seeded flood workload on a fresh engine with
// the given injector config and returns the per-query stats.
func faultWorkload(mk mkFaultEngine, seed uint64, cfg *fault.Config) []peer.Stats {
	rng := stats.NewRNG(seed)
	g := overlay.GnutellaLike(rng, 200)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	var inj fault.Injector
	if cfg != nil {
		inj = fault.NewSeeded(*cfg)
	}
	e := mk(g, m, inj)
	return routing.RunWorkload(stats.NewRNG(seed+1), &routing.OneShot{Label: "flood", E: e, TTL: 6}, e, 200)
}

// Identical seeds must give byte-identical stats series under injected
// faults — the determinism contract the chaos smoke test builds on.
func TestEngineFaultsDeterministic(t *testing.T) {
	cfg := fault.Config{Seed: 17, Drop: 0.1, Duplicate: 0.05, Delay: 0.2, MaxDelay: 4,
		Crash: 0.1, Slow: 0.1, EpochEvery: 16}
	for _, eng := range faultEngines {
		a := faultWorkload(eng.mk, 5, &cfg)
		b := faultWorkload(eng.mk, 5, &cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical seeds produced different stats under faults", eng.name)
		}
	}
}

// Injected loss and churn must actually degrade the workload: fewer
// successes and fewer nodes reached than the clean run. A zero-config
// injector must change nothing at all versus Fault == nil.
func TestEngineFaultsDegradeAndZeroConfigIsExact(t *testing.T) {
	for _, eng := range faultEngines {
		clean := faultWorkload(eng.mk, 5, nil)
		zero := faultWorkload(eng.mk, 5, &fault.Config{Seed: 17})
		if !reflect.DeepEqual(clean, zero) {
			t.Fatalf("%s: zero-config injector diverged from nil injector", eng.name)
		}

		lossy := faultWorkload(eng.mk, 5, &fault.Config{Seed: 17, Drop: 0.3, Crash: 0.2, EpochEvery: 16})
		sum := func(all []peer.Stats) (succ int, reached int) {
			for _, s := range all {
				if s.Found {
					succ++
				}
				reached += s.NodesReached
			}
			return
		}
		cs, cr := sum(clean)
		ls, lr := sum(lossy)
		if ls >= cs {
			t.Fatalf("%s: success did not degrade under loss+churn: clean %d, lossy %d", eng.name, cs, ls)
		}
		if lr >= cr {
			t.Fatalf("%s: reach did not degrade under loss+churn: clean %d, lossy %d", eng.name, cr, lr)
		}
	}
}

// A hit dropped on the reverse path must not count as Found. On a line
// graph with the origin at node 0 and the content at the far end, query
// forwards that matter travel toward increasing ids and every reverse-
// path hop travels toward decreasing ids, so a downhill-only injector
// severs exactly the hit's way home: the content still matches
// (Hits = 1) but the query must not be Found.
func TestEngineHitLossIsNotFound(t *testing.T) {
	g := overlay.NewGraph(6)
	for i := 1; i < 6; i++ {
		g.AddEdge(i-1, i)
	}
	m := content.Explicit(6, 4, map[int][]trace.InterestID{4: {0}})
	for _, eng := range faultEngines {
		st := eng.mk(g, m, downhillDropInjector{}).RunQuerySpec(0, 0, peer.QuerySpec{TTL: 8})
		if st.Hits != 1 {
			t.Fatalf("%s: content did not match: %+v", eng.name, st)
		}
		if st.Found {
			t.Fatalf("%s: query Found although the hit's reverse path was severed: %+v", eng.name, st)
		}

		// Same topology, no faults: the identical query is Found.
		if st := eng.mk(g, m, nil).RunQuerySpec(0, 0, peer.QuerySpec{TTL: 8}); !st.Found {
			t.Fatalf("%s: clean control query not Found: %+v", eng.name, st)
		}
	}
}

// downhillDropInjector drops every message sent toward a smaller node
// id; on a line graph queried from node 0 that is every reverse-path
// hop (and only duplicate-suppressed back-forwards besides).
type downhillDropInjector struct{}

func (downhillDropInjector) OnSend(from, to int) fault.Fate {
	return fault.Fate{Drop: to < from}
}
func (downhillDropInjector) Down(int) bool { return false }
func (downhillDropInjector) Tick()         {}
