package flat

import (
	"reflect"
	"slices"
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/routing"
	"arq/internal/stats"
)

// ArrivalFlood forwards to every neighbor but the sender, as
// routing.Flood does, but is neither a peer.Broadcaster nor a
// peer.RouteAppender: an engine of these takes the generic frontier
// loop, which deduplicates a copy when it arrives. It is exported for
// this package's external tests.
type ArrivalFlood struct{}

func (ArrivalFlood) Name() string { return "arrival-flood" }
func (ArrivalFlood) Walk() bool   { return false }
func (ArrivalFlood) Route(_, from int, _ peer.Meta, nbrs []int32) []int32 {
	out := make([]int32, 0, len(nbrs))
	for _, v := range nbrs {
		if int(v) != from {
			out = append(out, v)
		}
	}
	return out
}
func (ArrivalFlood) ObserveHit(int, int, peer.Meta, int) {}

// TestFloodClearsMarks holds runFlood to the generic loop query after
// query on one engine, with shallow (TTL 0-2) and deep (TTL 7) floods
// interleaved from seeded origins. At 5 000 nodes the mark set is 79
// words, which FuzzFloodFastPath's graphs (one word) never reach. After
// every query each peer.Stats field must equal the generic loop's and the
// set must be all zero, since the next query deduplicates on it.
func TestFloodClearsMarks(t *testing.T) {
	rng := stats.NewRNG(17)
	g := overlay.GnutellaLike(rng, 5000)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	fast := NewEngine(g, m, func(int) peer.Router { return routing.Flood{} })
	slow := NewEngine(g, m, func(int) peer.Router { return ArrivalFlood{} })
	if len(fast.mark) != 79 {
		t.Fatalf("mark set has %d words, want 79", len(fast.mark))
	}

	ttls := []int{0, 7, 1, 7, 2, 7}
	for i, j := range peer.DrawWorkload(stats.NewRNG(4), m, g.N(), 60) {
		ttl := ttls[i%len(ttls)]
		a := fast.RunQuery(j.Origin, j.Category, ttl)
		b := slow.RunQuery(j.Origin, j.Category, ttl)
		if !slices.Equal(a.HitNodes, b.HitNodes) {
			t.Fatalf("query %d (origin %d, TTL %d): hit nodes %v != generic loop's %v", i, j.Origin, ttl, a.HitNodes, b.HitNodes)
		}
		a.HitNodes, b.HitNodes = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d (origin %d, TTL %d): flood loop %+v != generic loop %+v", i, j.Origin, ttl, a, b)
		}
		if k := slices.IndexFunc(fast.mark, func(w uint64) bool { return w != 0 }); k >= 0 {
			t.Fatalf("query %d (origin %d, TTL %d, %d nodes reached): mark word %d is %#x after the query, want 0", i, j.Origin, ttl, a.NodesReached, k, fast.mark[k])
		}
	}
}
