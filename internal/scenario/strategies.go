package scenario

import (
	"fmt"
	"strings"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/routing"
	"arq/internal/stats"
)

// EngineFactory constructs a query engine over the scenario's substrate
// from a per-node router factory — the hook that lets one strategy list
// run against flat.Engine or, in the equivalence tests, the oracle.
type EngineFactory func(factory func(u int) peer.Router) peer.QueryEngine

// Strategy is one named search strategy over a scenario: Build wires a
// searcher, the engine it drives, and the replacement-router factory a
// churned node rejoins with. Warm marks learning strategies that need a
// warm-up workload before measuring.
type Strategy struct {
	Name  string
	Warm  bool
	Build func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router)
}

// Strategies returns the seven router families every engine-equivalence
// and benchmark grid sweeps, parameterized by the scenario's query spec:
// a positive spec.TopK turns every searcher into its top-k
// early-terminating variant. seed feeds the walkers' RNG streams.
func Strategies(g *overlay.Graph, m *content.Model, spec peer.QuerySpec, seed uint64) []Strategy {
	flood := func(u int) peer.Router { return routing.Flood{} }
	return []Strategy{
		{Name: "flood", Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			e := mk(flood)
			return &routing.OneShot{Label: "flood", E: e, TTL: spec.TTL, TopK: spec.TopK}, e, flood
		}},
		{Name: "expanding-ring", Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			e := mk(flood)
			return &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: spec.TTL, TopK: spec.TopK}, e, flood
		}},
		{Name: "kwalk-16", Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			wrng := stats.NewRNG(seed + 200)
			walker := func(u int) peer.Router { return &routing.RandomWalk{K: 16, RNG: wrng.Split()} }
			e := mk(walker)
			return &routing.OneShot{Label: "kwalk", E: e, TTL: 64, TopK: spec.TopK}, e, walker
		}},
		{Name: "routing-index", Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			idx := routing.BuildRoutingIndices(g, m.HostedCategories, 4, 2)
			e := mk(func(u int) peer.Router { return idx[u] })
			// A churned newcomer has no precomputed index — it floods.
			return &routing.OneShot{Label: "ri", E: e, TTL: spec.TTL, TopK: spec.TopK}, e, flood
		}},
		{Name: "interest-shortcuts", Warm: true, Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			e := mk(flood)
			s := routing.NewShortcuts(e, spec.TTL, 5, 10)
			s.TopK = spec.TopK
			return s, e, flood
		}},
		{Name: "assoc", Warm: true, Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			e, rejoin := assocEngine(g, mk, routing.DefaultAssocConfig())
			return &routing.OneShot{Label: "assoc", E: e, TTL: spec.TTL, TopK: spec.TopK}, e, rejoin
		}},
		{Name: "assoc-two-phase", Warm: true, Build: func(mk EngineFactory) (routing.Searcher, peer.QueryEngine, func(u int) peer.Router) {
			cfg := routing.DefaultAssocConfig()
			cfg.Strict = true
			e, rejoin := assocEngine(g, mk, cfg)
			return &routing.AssocTwoPhase{E: e, TTL: spec.TTL, TopK: spec.TopK}, e, rejoin
		}},
	}
}

// StrategyByName returns the strategy of strats called name; the error
// for an unknown name lists the valid ones.
func StrategyByName(strats []Strategy, name string) (Strategy, error) {
	names := make([]string, len(strats))
	for i, st := range strats {
		if st.Name == name {
			return st, nil
		}
		names[i] = st.Name
	}
	return Strategy{}, fmt.Errorf("unknown router %q (valid: %s)", name, strings.Join(names, ", "))
}

// assocEngine builds an engine over one slab of association routers, node
// u on the u-th, and returns it with the factory a churned node rejoins
// through: the same slot, emptied in place, so the router starts from no
// rules and the slab stays the only home of learn state.
func assocEngine(g *overlay.Graph, mk EngineFactory, cfg routing.AssocConfig) (peer.QueryEngine, func(u int) peer.Router) {
	as := routing.NewAssocs(g.N(), cfg)
	e := mk(func(u int) peer.Router { return &as[u] })
	return e, func(u int) peer.Router {
		as[u].Reset()
		return &as[u]
	}
}
