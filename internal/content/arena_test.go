package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"arq/internal/overlay"
	"arq/internal/stats"
	"arq/internal/trace"
)

// The model itself is pinned, not only through the query outcomes it
// feeds: every node's hosted categories (in draw order), profile and
// community hash to the digests the nested-slice model (a slice and a Go
// map per node) produced, for two scenario presets at 5 000 nodes, after
// the build and again after 10⁴ seeded Reassigns.

// communitiesConfig is scenario's "communities" preset (hubs and a role
// split); scenario imports content, so the test spells it out.
func communitiesConfig() Config {
	cfg := DefaultConfig()
	cfg.CommunityBias = 0.95
	cfg.HubFrac = 0.05
	cfg.HubBoost = 4
	cfg.ClientFrac = 0.25
	cfg.BystanderFrac = 0.10
	return cfg
}

func modelDigest(m *Model, n int) string {
	h := sha256.New()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for u := 0; u < n; u++ {
		hosted := m.HostedCategories(u)
		put(int32(len(hosted)))
		for _, c := range hosted {
			put(int32(c))
		}
		prof := m.profile(u)
		put(int32(len(prof)))
		for _, c := range prof {
			put(int32(c))
		}
		put(m.comm[u])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestModelDigest(t *testing.T) {
	for _, c := range []struct {
		name           string
		cfg            Config
		built, churned string
	}{
		{"baseline", DefaultConfig(),
			"94fb8ca31083cb24bfc6458d648facdf4f086fa8bbcb6ac9d01213d6c1ae1f72",
			"8c4cfb57d54b1a43d1d8b615dfcea54fadcb559c347eaa0361637303a1f8605a"},
		{"communities", communitiesConfig(),
			"92a018249aef399635d1cf0a4d3be3f8cd0c01e4e801d6f5e619ecc33700c9f1",
			"043467001e59a351b9b57d6df96bfcc3db94f156abba3ef3ce0053ba83a23d04"},
	} {
		// As scenario.Build at seed 1: the overlay and the placement
		// share the stream seeded Seed+100.
		const n = 5000
		rng := stats.NewRNG(1 + 100)
		g := overlay.GnutellaLike(rng, n)
		m := BuildClustered(rng.Split(), g, c.cfg)
		if got := modelDigest(m, n); got != c.built {
			t.Errorf("%s: built model digest %s, want %s", c.name, got, c.built)
		}
		dyn := stats.NewRNG(13)
		for i := 0; i < 10000; i++ {
			m.Reassign(dyn, dyn.Intn(n))
		}
		if got := modelDigest(m, n); got != c.churned {
			t.Errorf("%s: churned model digest %s, want %s", c.name, got, c.churned)
		}
	}
}

// nested is the reference placement: a slice per node, deduplicated
// through a Go map, exactly as Model kept it before the arena.
type nested struct {
	hosts, profiles [][]trace.InterestID
}

func newNested(m *Model, n int) *nested {
	ref := &nested{hosts: make([][]trace.InterestID, n), profiles: make([][]trace.InterestID, n)}
	for u := 0; u < n; u++ {
		ref.hosts[u] = slices.Clone(m.HostedCategories(u))
		ref.profiles[u] = slices.Clone(m.profile(u))
	}
	return ref
}

// reassign is the nested-slice Reassign; m only lends its draw, which
// reads the configuration and the communities, never the placement.
func (ref *nested) reassign(m *Model, rng *stats.RNG, u int) {
	ref.hosts[u] = nil
	kind := m.role(u)
	share := false
	switch kind {
	case roleHub:
		share = true
	case roleProvider:
		share = !rng.Bool(m.cfg.FreeRiderFrac)
	}
	if share {
		nf := 1 + rng.Intn(2*filesPerNode)
		if kind == roleHub {
			nf *= m.hubBoost()
		}
		seen := map[trace.InterestID]bool{}
		for i := 0; i < nf; i++ {
			c := m.draw(rng, u)
			if !seen[c] {
				seen[c] = true
				ref.hosts[u] = append(ref.hosts[u], c)
			}
		}
	}
	prof := make([]trace.InterestID, m.cfg.ProfileSize)
	for i := range prof {
		prof[i] = m.draw(rng, u)
	}
	ref.profiles[u] = prof
}

// Under 10⁴ seeded Reassigns the arena model equals the nested-slice
// reference node for node, every run is capped at its end, and the arena
// never holds more dead entries than live ones. 400 nodes churn ~25 times
// each, so runs shrink in place, grow onto the tail, and the arena is
// rebuilt more than once.
func TestReassignMatchesNested(t *testing.T) {
	const n = 400
	for _, cfg := range []Config{DefaultConfig(), communitiesConfig()} {
		m := BuildClustered(stats.NewRNG(21), ring(n), cfg)
		ref := newNested(m, n)
		a, b := stats.NewRNG(22), stats.NewRNG(22)
		rebuilds := 0
		for i := 0; i < 10000; i++ {
			before := m.hosted.Len()
			u := a.Intn(n)
			m.Reassign(a, u)
			ref.reassign(m, b, b.Intn(n))
			if m.hosted.Len() < before {
				rebuilds++
			}
			if m.hosted.Len() > 2*m.hosted.Live() {
				t.Fatalf("after %d reassigns the arena holds %d entries for %d live", i+1, m.hosted.Len(), m.hosted.Live())
			}
		}
		if rebuilds < 2 {
			t.Fatalf("the arena was rebuilt %d times in 10⁴ reassigns; the churn never exercised it", rebuilds)
		}
		live := 0
		for u := 0; u < n; u++ {
			got := m.HostedCategories(u)
			live += len(got)
			if !slices.Equal(got, ref.hosts[u]) || !slices.Equal(m.profile(u), ref.profiles[u]) {
				t.Fatalf("node %d: hosts %v profile %v, nested reference %v %v",
					u, got, m.profile(u), ref.hosts[u], ref.profiles[u])
			}
			if cap(got) != len(got) {
				t.Fatalf("node %d: run of %d has capacity %d; an append would overwrite its neighbour", u, len(got), cap(got))
			}
		}
		if live != m.hosted.Live() {
			t.Fatalf("runs hold %d entries, the model counts %d live", live, m.hosted.Live())
		}
	}
}
