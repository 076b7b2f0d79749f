package flat_test

import (
	"slices"
	"testing"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/peer/oracle"
	"arq/internal/routing"
	"arq/internal/stats"
)

// observation is one hit a node learned from: the query, the upstream the
// query arrived from, and the neighbor the hit returned through.
type observation struct {
	id        peer.QueryID
	from, via int
}

// recorder is a router that learns and routes on what it learned: it
// forwards to every neighbor but the sender that some hit has returned
// through, plus a query-dependent share of the rest. It records every
// observation it is handed, every query it routed, and how many
// ObserveHits calls each query made of it.
type recorder struct {
	learned  map[int32]int
	obs      []observation
	routed   []peer.QueryID
	calls    map[peer.QueryID]int
	unrouted []observation // observations of a query this node had not routed yet
}

func newRecorder() *recorder {
	return &recorder{learned: map[int32]int{}, calls: map[peer.QueryID]int{}}
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Walk() bool   { return false }

func (r *recorder) Route(_, from int, q peer.Meta, nbrs []int32) []int32 {
	r.routed = append(r.routed, q.ID)
	var out []int32
	for _, v := range nbrs {
		if int(v) != from && (r.learned[v] > 0 || (int(v)+int(q.ID))%3 == 0) {
			out = append(out, v)
		}
	}
	return out
}

func (r *recorder) ObserveHit(_, from int, q peer.Meta, via int) {
	o := observation{q.ID, from, via}
	if !slices.Contains(r.routed, q.ID) {
		r.unrouted = append(r.unrouted, o)
	}
	r.obs = append(r.obs, o)
	r.learned[int32(via)]++
}

func (r *recorder) ObserveHits(u, from int, q peer.Meta, vias []int32) {
	r.calls[q.ID]++
	for _, via := range vias {
		r.ObserveHit(u, from, q, int(via))
	}
}

// loudFlood is a broadcasting router that counts the learning calls it
// gets, which an engine may skip since they are no-ops by contract.
type loudFlood struct {
	routing.Flood
	calls int
}

func (f *loudFlood) ObserveHit(int, int, peer.Meta, int)      { f.calls++ }
func (f *loudFlood) ObserveHits(int, int, peer.Meta, []int32) { f.calls++ }

// TestDeferredLearningIsExact pins the contract that makes the flat
// engine's end-of-query learning exact. The same workload runs on the flat
// engine, which hands each observer its hits when the query is over, and
// on the oracle, which delivers each hit as it happens, over a mix of
// learning routers and broadcasting ones, on a perfect network and under
// a seeded injector. Routing reads what was learned, so a deferred hit
// that some decision of its own query should have seen would show up as
// diverging stats. Every learning node must see the same observations in
// the same order on both engines; on the flat engine each must arrive
// after the node routed its query (or, for a hit node that does not
// forward, with the node never routing it), in one ObserveHits call per
// query and node; and no broadcasting node may be called at all.
func TestDeferredLearningIsExact(t *testing.T) {
	rng := stats.NewRNG(17)
	g := overlay.GnutellaLike(rng, 300)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	jobs := peer.DrawWorkload(stats.NewRNG(18), m, g.N(), 400)

	for _, tc := range []struct {
		name  string
		fault *fault.Config
	}{{"perfect", nil}, {"faulted", &goldenFaults}} {
		t.Run(tc.name, func(t *testing.T) {
			type side struct {
				engine peer.QueryEngine
				rec    []*recorder
				flood  []*loudFlood
			}
			build := func(mk func(func(int) peer.Router) peer.QueryEngine) *side {
				s := &side{rec: make([]*recorder, g.N()), flood: make([]*loudFlood, g.N())}
				s.engine = mk(func(u int) peer.Router {
					if u%4 == 0 {
						s.flood[u] = &loudFlood{}
						return s.flood[u]
					}
					s.rec[u] = newRecorder()
					return s.rec[u]
				})
				return s
			}
			ref := build(func(f func(int) peer.Router) peer.QueryEngine {
				e := oracle.NewEngine(g, m, f)
				if tc.fault != nil {
					e.Fault = fault.NewSeeded(*tc.fault)
				}
				return e
			})
			got := build(func(f func(int) peer.Router) peer.QueryEngine {
				e := flat.NewEngine(g, m, f)
				if tc.fault != nil {
					e.Fault = fault.NewSeeded(*tc.fault)
				}
				return e
			})

			for i, j := range jobs {
				a := ref.engine.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: 5})
				b := got.engine.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: 5})
				if !sameStats(a, b) {
					t.Fatalf("query %d: oracle %+v != flat %+v", i, a, b)
				}
			}

			learned := 0
			for u := range g.N() {
				if f := got.flood[u]; f != nil {
					if f.calls != 0 {
						t.Errorf("broadcasting node %d got %d learning calls, want none", u, f.calls)
					}
					continue
				}
				r, want := got.rec[u], ref.rec[u]
				learned += len(r.obs)
				if !slices.Equal(r.obs, want.obs) {
					t.Fatalf("node %d observed %v on the flat engine, %v on the oracle", u, r.obs, want.obs)
				}
				// A hit node that does not forward (its TTL is spent)
				// observes its own hit without routing, and never routes
				// that query later; every other observation comes after
				// the node routed the query.
				for _, o := range r.unrouted {
					if o.via != u || slices.Contains(r.routed, o.id) {
						t.Errorf("node %d observed %+v before it routed the query", u, o)
					}
				}
				for id, n := range r.calls {
					if n != 1 {
						t.Errorf("node %d got %d ObserveHits calls for query %d, want 1", u, n, id)
					}
				}
				for _, o := range r.obs {
					if r.calls[o.id] == 0 {
						t.Fatalf("node %d observed query %d outside ObserveHits", u, o.id)
					}
				}
			}
			if learned == 0 {
				t.Fatal("no node learned anything: the workload does not exercise hit delivery")
			}
		})
	}
}
