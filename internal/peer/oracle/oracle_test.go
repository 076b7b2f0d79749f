package oracle

import (
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

// floodRouter is a minimal flood router for engine tests (the real one
// lives in internal/routing; these 10 lines pin engine semantics
// independently of that package).
type floodRouter struct{}

func (floodRouter) Name() string { return "flood" }
func (floodRouter) Walk() bool   { return false }
func (floodRouter) Route(_, from int, _ peer.Meta, nbrs []int32) []int32 {
	out := make([]int32, 0, len(nbrs))
	for _, v := range nbrs {
		if int(v) != from {
			out = append(out, v)
		}
	}
	return out
}
func (floodRouter) ObserveHit(int, int, peer.Meta, int) {}

// recordingRouter wraps flood and records ObserveHit calls.
type recordingRouter struct {
	floodRouter
	hits []struct{ u, from, via int }
	u    int
}

func (r *recordingRouter) ObserveHit(u, from int, _ peer.Meta, via int) {
	r.hits = append(r.hits, struct{ u, from, via int }{u, from, via})
}

// lineGraph returns 0-1-2-...-n-1.
func lineGraph(n int) *overlay.Graph {
	g := overlay.NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

// modelHosting builds a content model where exactly the given nodes host
// category 0.
func modelHosting(n int, hosters ...int) *content.Model {
	hosts := map[int][]trace.InterestID{}
	for _, h := range hosters {
		hosts[h] = []trace.InterestID{0}
	}
	return content.Explicit(n, 4, hosts)
}

func floodEngine(g *overlay.Graph, m *content.Model) *Engine {
	return NewEngine(g, m, func(u int) peer.Router { return floodRouter{} })
}

func TestFloodFindsContentOnLine(t *testing.T) {
	g := lineGraph(6)
	m := modelHosting(6, 4)
	e := floodEngine(g, m)
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 5})
	if !st.Found || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FirstHitHops != 4 {
		t.Fatalf("hops = %d, want 4", st.FirstHitHops)
	}
	// 5 query messages down the line, 4 hit messages back.
	if st.QueryMessages != 5 || st.HitMessages != 4 {
		t.Fatalf("messages = %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("duplicates on a line = %d", st.Duplicates)
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	g := lineGraph(10)
	m := modelHosting(10, 9)
	e := floodEngine(g, m)
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 3})
	if st.Found {
		t.Fatal("content beyond TTL was found")
	}
	if st.NodesReached != 4 { // origin + 3 hops
		t.Fatalf("reached = %d", st.NodesReached)
	}
}

func TestOriginContentNotCounted(t *testing.T) {
	g := lineGraph(3)
	m := modelHosting(3, 0, 2)
	e := floodEngine(g, m)
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 3})
	if st.Hits != 1 || st.FirstHitHops != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFloodMessageCountOnGeneralGraph(t *testing.T) {
	rng := stats.NewRNG(3)
	g := overlay.Random(rng, 200, 5)
	m := modelHosting(200) // no content: pure propagation cost
	e := floodEngine(g, m)
	origin := 7
	st := e.RunQuerySpec(origin, 0, peer.QuerySpec{TTL: 64})
	// Every node forwards once to all neighbors except its upstream;
	// origin forwards to all. Total = deg(origin) + sum_{u != origin}
	// (deg(u) - 1) = 2M - N + 1.
	want := 2*g.M() - g.N() + 1
	if st.QueryMessages != want {
		t.Fatalf("flood messages = %d, want %d", st.QueryMessages, want)
	}
	if st.NodesReached != g.N() {
		t.Fatalf("reached = %d of %d", st.NodesReached, g.N())
	}
	if st.Duplicates != st.QueryMessages-(g.N()-1) {
		t.Fatalf("duplicates = %d", st.Duplicates)
	}
}

func TestHitObservationPath(t *testing.T) {
	g := lineGraph(4)
	m := modelHosting(4, 3)
	routers := make([]*recordingRouter, 4)
	e := NewEngine(g, m, func(u int) peer.Router {
		routers[u] = &recordingRouter{u: u}
		return routers[u]
	})
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 3})
	if !st.Found {
		t.Fatal("not found")
	}
	// Node 3 (the hit) observes itself with upstream 2; node 2 observes
	// via=3 with upstream 1; node 1 observes via=2; node 0 (origin)
	// observes via=1 with upstream peer.NoUpstream.
	check := func(u, wantFrom, wantVia int) {
		hits := routers[u].hits
		if len(hits) != 1 {
			t.Fatalf("node %d observed %d hits", u, len(hits))
		}
		if hits[0].from != wantFrom || hits[0].via != wantVia {
			t.Fatalf("node %d observed %+v", u, hits[0])
		}
	}
	check(3, 2, 3)
	check(2, 1, 3)
	check(1, 0, 2)
	check(0, peer.NoUpstream, 1)
}

// singleWalker forwards to the lowest-id neighbor that is not the sender —
// deterministic walker for tests.
type singleWalker struct{}

func (singleWalker) Name() string { return "walker" }
func (singleWalker) Walk() bool   { return true }
func (singleWalker) Route(_, from int, _ peer.Meta, nbrs []int32) []int32 {
	for _, v := range nbrs {
		if int(v) != from {
			return []int32{v}
		}
	}
	if len(nbrs) > 0 {
		return []int32{nbrs[0]}
	}
	return nil
}
func (singleWalker) ObserveHit(int, int, peer.Meta, int) {}

func TestWalkerTraversesAndTerminatesOnHit(t *testing.T) {
	g := lineGraph(6)
	m := modelHosting(6, 3)
	e := NewEngine(g, m, func(u int) peer.Router { return singleWalker{} })
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 100})
	if !st.Found || st.FirstHitHops != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Walker stops at node 3: messages 0->1->2->3 = 3.
	if st.QueryMessages != 3 {
		t.Fatalf("query messages = %d", st.QueryMessages)
	}
}

func TestWalkerTTLBounds(t *testing.T) {
	g := lineGraph(10)
	m := modelHosting(10) // nothing to find
	e := NewEngine(g, m, func(u int) peer.Router { return singleWalker{} })
	st := e.RunQuerySpec(0, 0, peer.QuerySpec{TTL: 4})
	if st.QueryMessages != 4 {
		t.Fatalf("walker sent %d messages with TTL 4", st.QueryMessages)
	}
	if st.Found {
		t.Fatal("found nothing to find")
	}
}

func TestWorkloadRuns(t *testing.T) {
	rng := stats.NewRNG(4)
	g := overlay.Random(rng, 100, 4)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	e := floodEngine(g, m)
	all := routing.RunWorkload(stats.NewRNG(5), &routing.OneShot{Label: "flood", E: e, TTL: 5}, e, 50)
	if len(all) != 50 {
		t.Fatalf("workload size = %d", len(all))
	}
	agg := peer.Summarize(all)
	if agg.SuccessRate == 0 {
		t.Fatal("flooding a well-provisioned network found nothing")
	}
}

func TestMetaCategoryPlumbing(t *testing.T) {
	// The router must see the query's category and remaining TTL.
	g := lineGraph(3)
	cfg := content.DefaultConfig()
	cfg.Categories = 9
	cfg.FreeRiderFrac = 1
	m := content.BuildClustered(stats.NewRNG(6), g, cfg)
	var sawCat trace.InterestID
	var sawTTL int
	e := NewEngine(g, m, func(u int) peer.Router { return &metaSpy{cat: &sawCat, ttl: &sawTTL} })
	e.RunQuerySpec(0, 7, peer.QuerySpec{TTL: 2})
	if sawCat != 7 {
		t.Fatalf("router saw category %d", sawCat)
	}
	if sawTTL == 0 {
		t.Fatal("router never saw a positive TTL")
	}
}

type metaSpy struct {
	floodRouter
	cat *trace.InterestID
	ttl *int
}

func (s *metaSpy) Route(u, from int, q peer.Meta, nbrs []int32) []int32 {
	*s.cat = q.Category
	if q.TTL > *s.ttl {
		*s.ttl = q.TTL
	}
	return s.floodRouter.Route(u, from, q, nbrs)
}
