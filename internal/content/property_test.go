package content

import (
	"testing"

	"arq/internal/stats"
)

// Property tests for the model invariants the scenario layer leans on:
// roles gate hosting and query origins, hostile configs are clamped into
// usable ones, and the replica counters stay consistent under churn.

// Free-riders, clients, and bystanders must host zero files; hubs must
// always host at least one (they never free-ride, even at frac 1).
func TestRolesGateHosting(t *testing.T) {
	cfg := uniformConfig()
	cfg.FreeRiderFrac = 1 // every provider free-rides
	cfg.ClientFrac = 0.3
	cfg.BystanderFrac = 0.2
	cfg.HubFrac = 0.1
	const n = 2000
	m := BuildClustered(stats.NewRNG(5), ring(n), cfg)
	counts := map[Role]int{}
	for u := 0; u < n; u++ {
		role := m.Role(u)
		counts[role]++
		hosted := len(m.HostedCategories(u))
		if !role.SharesContent() && hosted != 0 {
			t.Fatalf("node %d (%s) hosts %d categories, want 0", u, role, hosted)
		}
		if role == RoleProvider && hosted != 0 {
			t.Fatalf("provider %d hosts %d categories at FreeRiderFrac=1", u, hosted)
		}
		if role == RoleHub && hosted == 0 {
			t.Fatalf("hub %d hosts nothing", u)
		}
	}
	// The single-draw role bands should roughly honor the fractions.
	for role, frac := range map[Role]float64{RoleHub: 0.1, RoleClient: 0.3, RoleBystander: 0.2} {
		got := float64(counts[role]) / n
		if got < frac/2 || got > 2*frac {
			t.Fatalf("%s fraction %.3f far from configured %.2f", role, got, frac)
		}
	}
}

// Hubs draw boosted file counts: across many nodes, mean hub hosting
// must clearly exceed mean provider hosting.
func TestHubBoost(t *testing.T) {
	cfg := uniformConfig()
	cfg.FreeRiderFrac = 0
	cfg.HubFrac = 0.2
	cfg.HubBoost = 4
	cfg.Categories = 10000 // wide space so dedup doesn't mask the boost
	const n = 3000
	m := BuildClustered(stats.NewRNG(6), ring(n), cfg)
	var hubFiles, hubN, provFiles, provN int
	for u := 0; u < n; u++ {
		switch m.Role(u) {
		case RoleHub:
			hubFiles += len(m.HostedCategories(u))
			hubN++
		case RoleProvider:
			provFiles += len(m.HostedCategories(u))
			provN++
		}
	}
	if hubN == 0 || provN == 0 {
		t.Fatal("need both hubs and providers at this seed")
	}
	hubMean := float64(hubFiles) / float64(hubN)
	provMean := float64(provFiles) / float64(provN)
	if hubMean < 2*provMean {
		t.Fatalf("hub mean %.1f files not clearly boosted over provider mean %.1f", hubMean, provMean)
	}
}

// Any config — negative fractions, over-1 probabilities, a zero profile —
// must build a usable model whose draws stay in range.
func TestHostileConfigsClamped(t *testing.T) {
	hostile := []Config{
		{Categories: 50, FreeRiderFrac: -3, CommunityBias: 7, ProfileSize: -1},
		{Categories: 1, PopularityZipf: 2, ProfileSize: 0, ClientFrac: 5, HubFrac: -1},
		{Categories: 0}, // falls back to DefaultConfig entirely
		{Categories: 3, BystanderFrac: 1.5, HubFrac: 1.5, ClientFrac: 1.5},
	}
	for i, cfg := range hostile {
		rng := stats.NewRNG(uint64(100 + i))
		const n = 300
		m := BuildClustered(rng, ring(n), cfg)
		wl := stats.NewRNG(uint64(200 + i))
		for q := 0; q < 1000; q++ {
			u := m.DrawOrigin(wl, n)
			if u < 0 || u >= n {
				t.Fatalf("cfg %d: DrawOrigin out of range: %d", i, u)
			}
			c := m.DrawQuery(wl, u) // must not panic on empty profiles
			if c < 0 || int(c) >= m.Categories() {
				t.Fatalf("cfg %d: DrawQuery out of range: %d / %d", i, c, m.Categories())
			}
		}
		for u := 0; u < n; u++ {
			for _, c := range m.HostedCategories(u) {
				if c < 0 || int(c) >= m.Categories() {
					t.Fatalf("cfg %d: node %d hosts out-of-range category %d", i, u, c)
				}
			}
		}
	}
}

// DrawOrigin never returns a bystander, and with the split disabled it
// is the plain uniform draw covering every node.
func TestDrawOriginRespectsRoles(t *testing.T) {
	cfg := uniformConfig()
	cfg.BystanderFrac = 0.4
	const n = 500
	m := BuildClustered(stats.NewRNG(7), ring(n), cfg)
	wl := stats.NewRNG(8)
	for q := 0; q < 5000; q++ {
		u := m.DrawOrigin(wl, n)
		if !m.Role(u).issuesQueries() {
			t.Fatalf("DrawOrigin returned bystander %d", u)
		}
	}

	uniform := BuildClustered(stats.NewRNG(9), ring(64), uniformConfig())
	seen := make([]bool, 64)
	wl2 := stats.NewRNG(10)
	for q := 0; q < 20000; q++ {
		seen[uniform.DrawOrigin(wl2, 64)] = true
	}
	for u, ok := range seen {
		if !ok {
			t.Fatalf("uniform DrawOrigin never produced node %d", u)
		}
	}
}

// SharesContent reports whether the role hosts files at all.
func (r Role) SharesContent() bool { return r == RoleProvider || r == RoleHub }
