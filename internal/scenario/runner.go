package scenario

import (
	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Runner drives one scenario through one searcher over one engine,
// interleaving workload draws with the dynamics schedule. It owns the
// workload and dynamics RNG streams, so two runners built from the same
// scenario issue identical queries and identical mutations regardless of
// which engine implementation backs them. It implements sim.BlockSource
// structurally, so sim.RunBlocks can aggregate its output without sim
// importing this package.
type Runner struct {
	S      Scenario
	G      *overlay.Graph
	M      *content.Model
	Eng    peer.QueryEngine
	Search routing.Searcher
	// NewRouter builds the replacement router a churned node rejoins
	// with (nil keeps the old router).
	NewRouter func(u int) peer.Router

	wl     *stats.RNG
	dyn    *stats.RNG
	issued int
	epoch  int
}

// NewRunner wires a runner over an already-built substrate and engine.
// All mutations go through r.G and r.M, which must be the same objects
// the engine was constructed over.
func NewRunner(s Scenario, g *overlay.Graph, m *content.Model, eng peer.QueryEngine, search routing.Searcher, newRouter func(u int) peer.Router) *Runner {
	return &Runner{
		S: s, G: g, M: m, Eng: eng, Search: search, NewRouter: newRouter,
		wl:  stats.NewRNG(s.Seed + 7),
		dyn: stats.NewRNG(s.Seed + 13),
	}
}

// Nodes implements sim.BlockSource.
func (r *Runner) Nodes() int { return r.G.N() }

// Block issues nQueries queries, firing any dynamics epochs that come
// due between them, and returns the per-query stats.
func (r *Runner) Block(nQueries int) []peer.Stats {
	out := make([]peer.Stats, 0, nQueries)
	n := r.G.N()
	for i := 0; i < nQueries; i++ {
		r.advance()
		origin := r.M.DrawOrigin(r.wl, n)
		cat := r.M.DrawQuery(r.wl, origin)
		out = append(out, r.Search.Search(origin, cat))
		r.issued++
	}
	return out
}

// advance fires every dynamics epoch due before the next query. Events
// fire strictly between queries — the DynamicEngine contract.
func (r *Runner) advance() {
	if !r.S.Dynamics.active() {
		return
	}
	for target := r.issued / r.S.Dynamics.QueriesPerEpoch; r.epoch < target; {
		r.epoch++
		for _, ev := range r.S.Dynamics.Events {
			if r.S.Dynamics.due(ev, r.epoch) {
				r.apply(ev)
			}
		}
	}
}

func (r *Runner) apply(ev Event) {
	count := int(ev.Frac * float64(r.G.N()))
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		r.churnNode(r.dyn.Intn(r.G.N()), ev.Degree)
	}
}

// churnNode models peer u leaving and a fresh peer taking its slot: all
// old edges drop, the newcomer wires itself to deg random peers, draws
// fresh content and interests, and starts with a blank router. The
// engine reads the rewired graph as it is; its hosting and u's router
// are patched in.
func (r *Runner) churnNode(u, deg int) {
	n := r.G.N()
	for _, v := range append([]int32(nil), r.G.Neighbors(u)...) {
		r.G.RemoveEdge(u, int(v))
	}
	if deg < 1 {
		deg = 1
	}
	for tries := 0; r.G.Degree(u) < deg && tries < 10*deg; tries++ {
		if v := r.dyn.Intn(n); v != u {
			r.G.AddEdge(u, v)
		}
	}
	oldHosts := append([]trace.InterestID(nil), r.M.HostedCategories(u)...)
	r.M.Reassign(r.dyn, u)
	de, dynamic := r.Eng.(peer.DynamicEngine)
	if !dynamic {
		return
	}
	de.HostedChanged(u, oldHosts, r.M.HostedCategories(u))
	if r.NewRouter != nil {
		de.RouterReset(u, r.NewRouter(u))
	}
}
