package replicate

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

func emptyModel(n int) *content.Model {
	return content.Explicit(n, 8, map[int][]trace.InterestID{0: {7}})
}

func TestOwnerPlacesAtRequester(t *testing.T) {
	got := Owner{}.Place(stats.NewRNG(1), 5, []int{5, 3, 2}, 1)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("owner placement = %v", got)
	}
}

func TestPathPlacesAlongPath(t *testing.T) {
	got := Path{}.Place(stats.NewRNG(1), 5, []int{5, 3, 2}, 1)
	if len(got) != 3 || got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("path placement = %v", got)
	}
}

func TestRandomPlacesSameCount(t *testing.T) {
	r := Random{N: 50}
	got := r.Place(stats.NewRNG(2), 5, []int{5, 3, 2}, 1)
	if len(got) != 3 {
		t.Fatalf("random placement count = %d", len(got))
	}
	seen := map[int]bool{}
	for _, u := range got {
		if u < 0 || u >= 50 || seen[u] {
			t.Fatalf("bad placement %v", got)
		}
		seen[u] = true
	}
}

func TestCacheInstallsAndCounts(t *testing.T) {
	m := emptyModel(10)
	c := NewCache(m, Owner{}, 4, stats.NewRNG(3))
	placed := c.OnSuccess(2, []int{2, 1, 0}, 7)
	if placed != 1 {
		t.Fatalf("placed = %d", placed)
	}
	if !m.Hosts(2, 7) {
		t.Fatal("replica not installed")
	}
	// Re-replicating the same category is a no-op.
	if c.OnSuccess(2, []int{2, 1, 0}, 7) != 0 {
		t.Fatal("duplicate replica placed")
	}
	if c.Replicas(2) != 1 {
		t.Fatalf("replica count = %d", c.Replicas(2))
	}
}

func TestCacheCapacityEvictsFIFO(t *testing.T) {
	m := emptyModel(4)
	c := NewCache(m, Owner{}, 2, stats.NewRNG(4))
	c.OnSuccess(1, nil, 3)
	c.OnSuccess(1, nil, 4)
	c.OnSuccess(1, nil, 5) // evicts 3
	if m.Hosts(1, 3) {
		t.Fatal("oldest replica not evicted")
	}
	if !m.Hosts(1, 4) || !m.Hosts(1, 5) {
		t.Fatal("newer replicas missing")
	}
	if c.Replicas(1) != 2 {
		t.Fatalf("replicas = %d", c.Replicas(1))
	}
}

func TestCacheKeepsReplicaAccounting(t *testing.T) {
	m := emptyModel(6)
	before := m.Replicas(7)
	c := NewCache(m, Path{}, 3, stats.NewRNG(5))
	c.OnSuccess(1, []int{1, 2, 3}, 7)
	if m.Replicas(7) != before+3 {
		t.Fatalf("replica accounting: %d vs %d+3", m.Replicas(7), before)
	}
}

func TestReplicationImprovesSearch(t *testing.T) {
	// Path replication after successful expanding-ring searches must cut
	// the cost of later searches for the same content — the [5] result.
	rng := stats.NewRNG(6)
	g := overlay.Random(rng, 400, 4)
	cfg := content.DefaultConfig()
	cfg.Categories = 100
	cfg.FilesPerNode = 2
	model := content.Build(rng.Split(), 400, cfg)
	e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
	ring := &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: 9}
	cache := NewCache(model, Path{}, 4, rng.Split())

	wrng := stats.NewRNG(7)
	var early, late float64
	const rounds = 600
	for i := 0; i < rounds; i++ {
		origin := wrng.Intn(g.N())
		cat := model.DrawQuery(wrng, origin)
		st := ring.Search(origin, cat)
		if st.Found {
			// Approximate the success path by the hit hop count: replicate
			// at the origin plus FirstHitHops random-direction nodes (the
			// engine does not expose the path; the count is what [5]'s
			// analysis depends on).
			path := []int{origin}
			for h := 0; h < st.FirstHitHops; h++ {
				path = append(path, wrng.Intn(g.N()))
			}
			// Replication changes what nodes host; the engine answers
			// hosting from its own snapshot, so patch it like any other
			// content change between queries.
			old := make([][]trace.InterestID, len(path))
			for j, u := range path {
				old[j] = append([]trace.InterestID(nil), model.HostedCategories(u)...)
			}
			cache.OnSuccess(origin, path, cat)
			for j, u := range path {
				e.HostedChanged(u, old[j], model.HostedCategories(u))
			}
		}
		cost := float64(st.Total())
		if i < rounds/3 {
			early += cost
		} else if i >= 2*rounds/3 {
			late += cost
		}
	}
	early /= rounds / 3
	late /= rounds / 3
	if late > early*0.9 {
		t.Fatalf("replication did not reduce search cost: early %.1f late %.1f", early, late)
	}
}
