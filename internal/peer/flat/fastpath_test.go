package flat_test

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

// FuzzFloodFastPath holds the flood loop, which deduplicates at the
// sender, equal to the generic loop, which deduplicates on arrival, on
// whatever overlay the bytes spell. Both engines read one graph, and
// patches is a list of edits to it: [0, u, k, v1..vk] toggles the edge
// from u to each of v1..vk in turn, removing it where it is and adding
// it where it is not (a v equal to u, or repeated, tests the refusals
// and copied-out rows edited twice); [1, u, masks] moves u's hosting
// from the categories in the low nibble to those in the high one
// (category 3 is outside the model). queries is a list of (origin,
// category, TTL 0-9) triples, the category running from -1 to 3 so both
// ends fall outside the model. Every peer.Stats field must agree,
// HitNodes in order.
func FuzzFloodFastPath(f *testing.F) {
	var sweep []byte
	for o := byte(0); o < 8; o++ {
		for ttl := byte(0); ttl < 10; ttl++ {
			sweep = append(sweep, o, o+ttl, ttl)
		}
	}
	f.Add(uint64(1), []byte{}, sweep)
	f.Add(uint64(12), []byte{
		0, 3, 2, 7, 9, // toggles 3-7 and 3-9
		0, 4, 3, 4, 1, 2, // names itself
		0, 5, 4, 6, 6, 1, 6, // toggles 5-6 three times
		0, 6, 1, 5, // toggles 6-5 back
		0, 7, 0, // no edit
		1, 2, 0x21, // node 2: category 0 out, category 1 in
	}, sweep)
	f.Add(uint64(33), []byte{0, 0, 7, 0, 0, 1, 1, 2, 2, 0, 1, 1, 0xff, 0, 1, 0}, sweep)
	f.Fuzz(func(t *testing.T, seed uint64, patches, queries []byte) {
		const cats = 3
		n := 1 + int(seed%32)
		rng := stats.NewRNG(seed)
		g := overlay.Random(rng, n, 3)
		hosts := map[int][]trace.InterestID{}
		for u := 0; u < n; u++ {
			if c := rng.Intn(cats + 1); c < cats {
				hosts[u] = []trace.InterestID{trace.InterestID(c)}
			}
		}
		m := content.Explicit(n, cats, hosts)
		fast := flat.NewEngine(g, m, func(int) peer.Router { return routing.Flood{} })
		slow := flat.NewEngine(g, m, func(int) peer.Router { return flat.ArrivalFlood{} })

		for p := patches; len(p) >= 3; {
			u := int(p[1]) % n
			if p[0]%2 == 1 {
				var old, now []trace.InterestID
				for c := 0; c < 4; c++ {
					if p[2]>>c&1 != 0 {
						old = append(old, trace.InterestID(c))
					}
					if p[2]>>(4+c)&1 != 0 {
						now = append(now, trace.InterestID(c))
					}
				}
				fast.HostedChanged(u, old, now)
				slow.HostedChanged(u, old, now)
				p = p[3:]
				continue
			}
			k := min(int(p[2])%8, len(p)-3)
			for _, b := range p[3 : 3+k] {
				if v := int(b) % n; !g.RemoveEdge(u, v) {
					g.AddEdge(u, v)
				}
			}
			p = p[3+k:]
		}

		for i := 0; i+2 < len(queries); i += 3 {
			origin := int(queries[i]) % n
			cat := trace.InterestID(int(queries[i+1])%(cats+2) - 1)
			ttl := int(queries[i+2]) % 10
			a := fast.RunQuery(origin, cat, ttl)
			b := slow.RunQuery(origin, cat, ttl)
			if !sameStats(a, b) {
				t.Fatalf("query %d (origin %d, category %d, TTL %d): flood loop %+v != generic loop %+v", i/3, origin, cat, ttl, a, b)
			}
		}
	})
}
