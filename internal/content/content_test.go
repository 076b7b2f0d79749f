package content

import (
	"testing"

	"arq/internal/overlay"
	"arq/internal/stats"
	"arq/internal/trace"
)

func TestBuildBasics(t *testing.T) {
	rng := stats.NewRNG(1)
	m := BuildClustered(rng, ring(500), uniformConfig())
	if m.Categories() != 200 {
		t.Fatalf("categories = %d", m.Categories())
	}
	hosting := 0
	total := 0
	for u := 0; u < 500; u++ {
		cats := m.HostedCategories(u)
		if len(cats) > 0 {
			hosting++
		}
		total += len(cats)
		for _, c := range cats {
			if !m.Hosts(u, c) {
				t.Fatalf("Hosts disagrees with HostedCategories at %d/%d", u, c)
			}
		}
	}
	// Roughly (1 - FreeRiderFrac) of peers share something.
	frac := float64(hosting) / 500
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("hosting fraction = %v", frac)
	}
	if total == 0 {
		t.Fatal("no content placed")
	}
}

func TestPopularityskew(t *testing.T) {
	rng := stats.NewRNG(3)
	m := BuildClustered(rng, ring(2000), uniformConfig())
	// Head categories should be much more replicated than tail ones.
	head, tail := 0, 0
	for u := 0; u < 2000; u++ {
		for _, c := range m.HostedCategories(u) {
			if c < 10 {
				head++
			} else if int(c) >= m.Categories()-10 {
				tail++
			}
		}
	}
	if head <= 3*tail {
		t.Fatalf("head replicas %d vs tail %d: no skew", head, tail)
	}
}

func TestDrawQueryFromProfile(t *testing.T) {
	rng := stats.NewRNG(4)
	m := BuildClustered(rng, ring(50), uniformConfig())
	for u := 0; u < 50; u++ {
		seen := map[trace.InterestID]bool{}
		for i := 0; i < 100; i++ {
			seen[m.DrawQuery(rng, u)] = true
		}
		if len(seen) > DefaultConfig().ProfileSize {
			t.Fatalf("node %d drew %d distinct categories, profile is %d",
				u, len(seen), DefaultConfig().ProfileSize)
		}
	}
}

func TestBuildClusteredLocality(t *testing.T) {
	rng := stats.NewRNG(5)
	g := overlay.GnutellaLike(rng, 1000)
	m := BuildClustered(rng.Split(), g, DefaultConfig())

	// Community labels must cover all nodes.
	labels := map[int]int{}
	for u := 0; u < g.N(); u++ {
		labels[m.Community(u)]++
	}
	if len(labels) < 2 {
		t.Fatal("expected multiple communities")
	}

	// Interest locality: two nodes of the same community should share
	// profile categories far more often than nodes of different
	// communities.
	sameOverlap, same := 0, 0
	diffOverlap, diff := 0, 0
	r2 := stats.NewRNG(6)
	overlap := func(a, b int) bool {
		for _, c := range m.profiles[a] {
			for _, d := range m.profiles[b] {
				if c == d {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < 20000; i++ {
		a, b := r2.Intn(g.N()), r2.Intn(g.N())
		if a == b {
			continue
		}
		if m.Community(a) == m.Community(b) {
			same++
			if overlap(a, b) {
				sameOverlap++
			}
		} else {
			diff++
			if overlap(a, b) {
				diffOverlap++
			}
		}
	}
	if same == 0 || diff == 0 {
		t.Fatal("sampling failed to cover both cases")
	}
	sameFrac := float64(sameOverlap) / float64(same)
	diffFrac := float64(diffOverlap) / float64(diff)
	if sameFrac < 2*diffFrac {
		t.Fatalf("no interest locality: same-community overlap %.3f vs cross %.3f",
			sameFrac, diffFrac)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	m := BuildClustered(stats.NewRNG(8), ring(10), Config{})
	if m.Categories() != DefaultConfig().Categories {
		t.Fatalf("defaults not applied: %d", m.Categories())
	}
}

// Community returns node u's community label.
func (m *Model) Community(u int) int { return m.comm[u] }

// ring is an n-node cycle: the tests that want topology-free placement
// build over it with uniformConfig.
type ring int

func (r ring) N() int { return int(r) }

func (r ring) Neighbors(u int) []int32 {
	n := int(r)
	return []int32{int32((u + n - 1) % n), int32((u + 1) % n)}
}

// uniformConfig is DefaultConfig with the community bias off: every
// category comes from the global Zipf popularity.
func uniformConfig() Config {
	cfg := DefaultConfig()
	cfg.CommunityBias = 0
	return cfg
}
