package scenario

import (
	"fmt"
	"math/rand"

	"arq/internal/vantage"
)

// ClusterPlan is the scenario layer for the N-process socket cluster
// (internal/cluster): content placement, topology, and the query mix,
// all deterministic in (N, Seed) so every child process derives the
// identical plan from its own config with no coordination. The zero
// FreeRiderFrac reproduces the historical cluster byte for byte.
type ClusterPlan struct {
	N    int
	Seed int64
	// FreeRiderFrac marks that fraction of nodes as sharing nothing;
	// their owned topics survive only on the other replica.
	FreeRiderFrac float64
}

// hotFrac is the probability a query targets a successor-owned topic.
const hotFrac = 0.7

// Universe returns the topic-universe size: 4 topics per node.
func (p ClusterPlan) Universe() int { return 4 * p.N }

// Owners returns the two nodes holding topic t.
func (p ClusterPlan) Owners(t int) (int, int) { return t % p.N, (t + 1) % p.N }

// SearchString is the query text for a topic; its tokens conjunctively
// match exactly that topic's files.
func (p ClusterPlan) SearchString(t int) string {
	return fmt.Sprintf("topic-%03d keywords", t)
}

// FreeRider reports whether node id shares nothing under this plan. The
// decision is a splitmix64 hash of (Seed, id), so every process marks
// the same nodes without coordination and independently of any RNG
// stream position.
func (p ClusterPlan) FreeRider(id int) bool {
	if p.FreeRiderFrac <= 0 {
		return false
	}
	x := uint64(p.Seed) + uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p.FreeRiderFrac
}

// Library builds node id's deterministic shared library: one file per
// owned topic per replica shard, or nothing for a free rider.
func (p ClusterPlan) Library(id int) []vantage.SharedFile {
	if p.FreeRider(id) {
		return nil
	}
	var lib []vantage.SharedFile
	for t := 0; t < p.Universe(); t++ {
		a, b := p.Owners(t)
		shard := -1
		if a == id {
			shard = 0
		} else if b == id {
			shard = 1
		}
		if shard < 0 {
			continue
		}
		lib = append(lib, vantage.SharedFile{
			Name: fmt.Sprintf("topic-%03d keywords shard%d.dat", t, shard),
			Size: uint32(1024 * (t + 1)),
		})
	}
	return lib
}

// Neighbours returns the ring+chord dial set for node id: (id+1)%N and
// (id+2)%N, deduplicated and never self.
func (p ClusterPlan) Neighbours(id int) []int {
	var out []int
	for _, d := range []int{1, 2} {
		q := (id + d) % p.N
		if q == id {
			continue
		}
		dup := false
		for _, w := range out {
			if w == q {
				dup = true
			}
		}
		if !dup {
			out = append(out, q)
		}
	}
	return out
}

// PickTopic draws one query topic for node id: hotFrac of the time from
// topics owned by a ring successor but not by id (paths the rule
// learner warms), otherwise uniform over topics id does not own. When
// exclusion empties a pool (tiny N replicates everything everywhere)
// the draw falls back to the whole universe — a self-owned topic still
// hits via its other replica. Draw order matches the historical
// pickTopic exactly, so a zero-valued plan replays the same stream.
func (p ClusterPlan) PickTopic(r *rand.Rand, id int) int {
	u := p.Universe()
	ownedBySelf := func(t int) bool { a, b := p.Owners(t); return a == id || b == id }
	var hot, cold []int
	succ := map[int]bool{}
	for _, q := range p.Neighbours(id) {
		succ[q] = true
	}
	for t := 0; t < u; t++ {
		if ownedBySelf(t) {
			continue
		}
		cold = append(cold, t)
		a, b := p.Owners(t)
		if succ[a] || succ[b] {
			hot = append(hot, t)
		}
	}
	pool := cold
	if len(hot) > 0 && r.Float64() < hotFrac {
		pool = hot
	}
	if len(pool) == 0 {
		return r.Intn(u)
	}
	return pool[r.Intn(len(pool))]
}
