package routing

import (
	"fmt"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/stats"
	"arq/internal/trace"
)

// SuperPeerNetwork models the super-peer architecture of Yang &
// Garcia-Molina [14] the paper's related work describes: leaves connect to
// a super-peer that indexes their content; a query goes to the leaf's
// super-peer (one hop), is answered from the index if any local leaf
// matches, and is otherwise flooded across the super-peer tier. It
// implements Searcher so it slots into the same workloads as the flat
// strategies; costs are counted message-by-message like the flat engines
// (leaf->super, super-tier floods, index lookups are local).
type SuperPeerNetwork struct {
	model   *content.Model
	super   *overlay.Graph                 // the super-peer tier overlay (indices into supers)
	supers  []int                          // super-peer node ids
	leafOf  []int                          // node -> index into supers (supers map to themselves)
	indexed []map[trace.InterestID][]int32 // per super: category -> member nodes
	ttl     int
}

// NewSuperPeerNetwork partitions n nodes into nSupers clusters: node ids
// [0, nSupers) are the super-peers, every other node attaches to a random
// super-peer, and the super-peers form a connected random overlay of
// average degree superDeg.
func NewSuperPeerNetwork(rng *stats.RNG, model *content.Model, n, nSupers int, superDeg float64, ttl int) (*SuperPeerNetwork, error) {
	if nSupers <= 0 || nSupers > n {
		return nil, fmt.Errorf("routing: need 0 < nSupers <= n, got %d/%d", nSupers, n)
	}
	sp := &SuperPeerNetwork{
		model:   model,
		super:   overlay.Random(rng, nSupers, superDeg),
		supers:  make([]int, nSupers),
		leafOf:  make([]int, n),
		indexed: make([]map[trace.InterestID][]int32, nSupers),
		ttl:     ttl,
	}
	for i := 0; i < nSupers; i++ {
		sp.supers[i] = i
		sp.leafOf[i] = i
		sp.indexed[i] = make(map[trace.InterestID][]int32)
	}
	for u := nSupers; u < n; u++ {
		sp.leafOf[u] = rng.Intn(nSupers)
	}
	// Build the indices: each super-peer knows its members' content
	// (including its own).
	for u := 0; u < n; u++ {
		s := sp.leafOf[u]
		for _, c := range model.HostedCategories(u) {
			sp.indexed[s][c] = append(sp.indexed[s][c], int32(u))
		}
	}
	return sp, nil
}

// Name implements Searcher.
func (sp *SuperPeerNetwork) Name() string { return "super-peer" }

// lookup returns a member of super s (other than origin) hosting c.
func (sp *SuperPeerNetwork) lookup(s int, c trace.InterestID, origin int) (int32, bool) {
	for _, u := range sp.indexed[s][c] {
		if int(u) != origin {
			return u, true
		}
	}
	return 0, false
}

// Search implements Searcher: leaf -> super-peer, index check, then a
// flood across the super-peer tier with TTL.
func (sp *SuperPeerNetwork) Search(origin int, category trace.InterestID) peer.Stats {
	var st peer.Stats
	home := sp.leafOf[origin]
	if origin != sp.supers[home] {
		st.QueryMessages++ // leaf -> super-peer
	}
	st.NodesReached++
	if u, ok := sp.lookup(home, category, origin); ok {
		st.Found = true
		st.Hits = 1
		st.FirstHitHops = 1
		st.HitNodes = []int32{u}
		st.HitMessages++ // response back to the leaf
		return st
	}

	// Flood across the super-peer tier (BFS with duplicate suppression).
	type frame struct {
		s, from, depth int
	}
	visited := map[int]bool{home: true}
	queue := []frame{{home, -1, 0}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if f.s != home {
			st.NodesReached++
			if u, ok := sp.lookup(f.s, category, origin); ok && !st.Found {
				st.Found = true
				st.Hits = 1
				st.FirstHitHops = f.depth + 1 // + leaf hop
				st.HitNodes = []int32{u}
				st.HitMessages += f.depth + 1 // hit routes back across the tier
				// Flooding continues network-wide in the real protocol;
				// we keep expanding to account its cost faithfully.
			}
		}
		if f.depth >= sp.ttl {
			continue
		}
		for _, w := range sp.super.Neighbors(f.s) {
			if int(w) == f.from {
				continue
			}
			st.QueryMessages++
			if visited[int(w)] {
				st.Duplicates++
				continue
			}
			visited[int(w)] = true
			queue = append(queue, frame{int(w), f.s, f.depth + 1})
		}
	}
	return st
}
