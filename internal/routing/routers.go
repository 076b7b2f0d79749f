// Package routing implements the query-forwarding strategies the paper
// proposes and compares against (§II–III): blind flooding, k-random walks
// [6], Crespo/Garcia-Molina-style routing indices [10], interest-based
// shortcuts [7], and the paper's association-rule router deployed online at
// every node with flooding fallback. Routers plug into the engines in
// internal/peer; search strategies that need driver-level control
// (expanding ring, shortcut probing) are in strategy.go.
package routing

import (
	"slices"
	"sort"

	"arq/internal/core"
	"arq/internal/obsv"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Observability instruments for the association-rule router, aggregated
// across all node instances: how often queries ride rules vs fall back to
// flooding (the paper's traffic-reduction mechanism vs its safety net),
// strict-mode drops, and the hit feedback that trains the rules. Shared
// atomics: one process can run many routers (every servent of an
// in-process mesh, every sweep worker's engine) recording concurrently.
var (
	mAssocRuleRouted = obsv.GetCounter("routing.assoc.rule_routed")
	mAssocFallbacks  = obsv.GetCounter("routing.assoc.fallback_flood")
	mAssocDrops      = obsv.GetCounter("routing.assoc.strict_drops")
	mAssocFloodPhase = obsv.GetCounter("routing.assoc.flood_phase")
	mAssocHits       = obsv.GetCounter("routing.assoc.hits_observed")
	// mAssocStale counts routing decisions that fell back to flooding
	// because the served snapshot breached its staleness bound — the
	// graceful-degradation transition under publication stalls.
	mAssocStale = obsv.GetCounter("routing.assoc.stale_fallbacks")
)

// Flood forwards every query to all neighbors except the one it arrived
// from — baseline Gnutella behaviour.
type Flood struct{}

// Name implements peer.Router.
func (Flood) Name() string { return "flood" }

// Walk implements peer.Router.
func (Flood) Walk() bool { return false }

// Route implements peer.Router.
func (Flood) Route(_, from int, _ peer.Meta, nbrs []int32) []int32 {
	out := make([]int32, 0, len(nbrs))
	for _, v := range nbrs {
		if int(v) != from {
			out = append(out, v)
		}
	}
	return out
}

// RouteAppend implements peer.RouteAppender — the same fan-out as Route
// without the per-call allocation.
func (Flood) RouteAppend(dst []int32, _, from int, _ peer.Meta, nbrs []int32) []int32 {
	for _, v := range nbrs {
		if int(v) != from {
			dst = append(dst, v)
		}
	}
	return dst
}

// Broadcasts implements peer.Broadcaster: Route is exactly
// "every neighbor except the sender".
func (Flood) Broadcasts() bool { return true }

// ObserveHit implements peer.Router.
func (Flood) ObserveHit(int, int, peer.Meta, int) {}

// RandomWalk implements k-random walks [6]: the origin releases K walkers;
// every other node forwards each arriving walker to one random neighbor,
// avoiding the immediate sender when possible. Walkers terminate on
// matching content or TTL expiry.
type RandomWalk struct {
	K   int
	RNG *stats.RNG
}

// Name implements peer.Router.
func (r *RandomWalk) Name() string { return "k-walk" }

// Walk implements peer.Router.
func (r *RandomWalk) Walk() bool { return true }

// Route implements peer.Router.
func (r *RandomWalk) Route(_, from int, _ peer.Meta, nbrs []int32) []int32 {
	if len(nbrs) == 0 {
		return nil
	}
	if from == peer.NoUpstream {
		k := r.K
		if k > len(nbrs) {
			k = len(nbrs)
		}
		idx := stats.SampleWithoutReplacement(r.RNG, len(nbrs), k)
		out := make([]int32, 0, k)
		for _, i := range idx {
			out = append(out, nbrs[i])
		}
		return out
	}
	// Forward the walker to one random neighbor, preferring not to step
	// straight back.
	if len(nbrs) == 1 {
		return []int32{nbrs[0]}
	}
	for {
		v := nbrs[r.RNG.Intn(len(nbrs))]
		if int(v) != from {
			return []int32{v}
		}
	}
}

// ObserveHit implements peer.Router.
func (r *RandomWalk) ObserveHit(int, int, peer.Meta, int) {}

// AssocConfig parameterizes the association-rule router.
type AssocConfig struct {
	// TopK is how many consequent neighbors a covered query is forwarded
	// to (the paper's "k neighbors with the highest support").
	TopK int
	// Threshold is the decayed support a (antecedent, consequent) pair
	// needs before it acts as a rule.
	Threshold float64
	// Decay ages rule support after every DecayEvery observed hits, so
	// rules track the network's drift (the §VI incremental maintenance).
	Decay      float64
	DecayEvery int
	// Floor is the decayed support below which a pair is evicted from the
	// learner's table entirely, bounding each node's rule memory. It must
	// stay below Threshold; 0 selects the learner's default, 0.25.
	Floor float64
	// Strict selects the paper's deployment: a node with no rule for the
	// query's upstream drops it, and the *origin* reverts the whole query
	// to flooding if no hits come back (use AssocTwoPhase). Non-strict
	// nodes locally fall back to flooding instead.
	Strict bool
	// Publish selects when the learn plane publishes a fresh routing
	// snapshot for the serve plane (see core.PublishPolicy). The zero
	// value is core.PublishSync: every observation that moves a rule's
	// rank or membership publishes, so a sequential deployment routes on
	// fully current rule order, the exact pre-split behaviour, while the
	// served supports may trail the learner's by up to DecayEvery hits.
	// core.PublishEpoch publishes every PublishEvery observations instead.
	Publish core.PublishPolicy
	// PublishEvery is the epoch length for core.PublishEpoch (default 64).
	PublishEvery int
	// StaleObs, when positive, bounds how far the served snapshot may
	// lag the learn plane: once that many observations have been
	// absorbed since the last publish, Route stops trusting the decayed
	// rules and falls back to flooding (counted by
	// routing.assoc.stale_fallbacks) until a publish catches the serve
	// plane up. 0 disables the bound — rules are served no matter how
	// stale, the historical behaviour.
	StaleObs int
}

// DefaultAssocConfig returns the deployment parameters used by the network
// experiments: the two strongest consequents, under the learning constants
// and synchronous publication (exact sequential semantics) of
// core.DefaultLearnerConfig.
func DefaultAssocConfig() AssocConfig {
	l := core.DefaultLearnerConfig()
	return AssocConfig{TopK: 2, Threshold: l.Threshold, Decay: l.Decay, DecayEvery: l.DecayEvery, Floor: l.Floor}
}

// Assoc is the paper's contribution deployed as an online router: the node
// mines {upstream neighbor} -> {neighbor that returned hits} rules from
// the query/hit traffic it relays, forwards covered queries to the top
// consequents only, and falls back to flooding for uncovered queries
// (§III-B: "if hits aren't found ... the node can still revert to
// flooding"). Queries originated locally use a distinct antecedent slot.
//
// The rule lifecycle is split into two planes. The write plane is one
// core.Learner: the decay-mode core.PairIndex the simulator's maintenance
// policies also run on, its publisher, and the only mutex. The read plane
// is Route/Consequents/RuleCount serving lock-free from the immutable
// snapshots the learner publishes, so any number of goroutines can route
// concurrently while learning proceeds — reads never contend with writes.
//
// The learner sits in the router by value and an overlay's routers sit in
// one slice (NewAssocs), so a node's whole learn/serve plane is a stretch
// of that slab and costs no heap object of its own. What a routing
// decision reads, the shared config and the served snapshot's pointer,
// comes first and shares a cache line. An Assoc must not be copied:
// index the slab, never range over it by value.
type Assoc struct {
	cfg   *assocShared
	learn core.Learner
}

// assocShared is what the routers of one slab have in common: their own
// parameters, defaults filled in, and the config their learners keep.
type assocShared struct {
	AssocConfig
	learn core.LearnerConfig
}

// assocHost maps a simulator node id into the engine's HostID key space.
// Node ids are 0-based, so they shift up by one; peer.NoUpstream (-1), the
// local-origin antecedent slot, lands on trace.NoHost — semantically "no
// upstream host", and never a real node under this mapping.
func assocHost(v int) trace.HostID {
	return trace.HostID(uint32(v) + 1)
}

// assocNode inverts assocHost for consequent ids.
func assocNode(h trace.HostID) int32 {
	return int32(uint32(h) - 1)
}

// NewAssocs returns n association-rule routers, one per node of an
// overlay, in one allocation and over one shared config: hand node u
// &as[u]. Decay and Floor outside their ranges are repaired by the
// learner (core.LearnerConfig).
func NewAssocs(n int, cfg AssocConfig) []Assoc {
	if cfg.TopK <= 0 {
		cfg.TopK = 2
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.DecayEvery <= 0 {
		cfg.DecayEvery = 64
	}
	shared := &assocShared{AssocConfig: cfg, learn: core.LearnerConfig{
		Threshold:  cfg.Threshold,
		Decay:      cfg.Decay,
		DecayEvery: cfg.DecayEvery,
		Floor:      cfg.Floor,
		Publish: core.PublisherConfig{
			Policy:   cfg.Publish,
			Epoch:    cfg.PublishEvery,
			StaleObs: int64(cfg.StaleObs),
		},
	}}
	as := make([]Assoc, n)
	for u := range as {
		as[u].cfg = shared
		as[u].learn.Init(&shared.learn)
	}
	return as
}

// NewAssoc returns an association-rule router for one node: a slab of one.
func NewAssoc(cfg AssocConfig) *Assoc {
	return &NewAssocs(1, cfg)[0]
}

// Reset empties the router in place, back to what NewAssocs made: a node
// that leaves the overlay and rejoins starts over from no rules in its own
// slot of the slab, and what it had learned is garbage. Nothing may be
// using the router meanwhile.
func (a *Assoc) Reset() {
	cfg := a.cfg
	*a = Assoc{cfg: cfg}
	a.learn.Init(&cfg.learn)
}

// Name implements peer.Router.
func (a *Assoc) Name() string { return "assoc" }

// Walk implements peer.Router.
func (a *Assoc) Walk() bool { return false }

// Route implements peer.Router: RouteAppend into a fresh slice, sized for
// the flood fallback so that no branch allocates twice. A strict drop
// returns nil.
func (a *Assoc) Route(u, from int, q peer.Meta, nbrs []int32) []int32 {
	if out := a.RouteAppend(make([]int32, 0, len(nbrs)), u, from, q, nbrs); len(out) > 0 {
		return out
	}
	return nil
}

// RouteAppend implements peer.RouteAppender. It is the serve plane:
// decisions come from the currently published snapshot via one atomic
// load, so it is safe for any number of concurrent callers and never
// contends with learning. The snapshot keeps the antecedent's rules as one
// run already in forwarding order, so the decision walks that run and
// keeps the first TopK consequents that are usable next hops. A rule may
// name a node that is no longer a neighbor (churned away since the rule
// was learned) or the sender itself; such a consequent is skipped and the
// next one takes its top-k slot. A run with no usable consequent is
// handled exactly like an antecedent with no rules.
func (a *Assoc) RouteAppend(dst []int32, u, from int, q peer.Meta, nbrs []int32) []int32 {
	if q.FloodPhase {
		// Origin-level fallback reissue: behave as a flooder.
		mAssocFloodPhase.Inc()
		return Flood{}.RouteAppend(dst, u, from, q, nbrs)
	}
	if a.learn.Stale() {
		// The served snapshot has fallen behind the learn plane
		// (publication stalled or overloaded): decayed rules are more
		// dangerous than expensive flooding, so degrade gracefully.
		// Deliberately overrides Strict — a strict drop on stale rules
		// would compound the outage.
		mAssocStale.Inc()
		return Flood{}.RouteAppend(dst, u, from, q, nbrs)
	}
	base := len(dst)
	// The snapshot holds exactly the pairs at or above the activation
	// threshold, so presence is the rule test.
	for _, e := range a.learn.View().Run(assocHost(from)) {
		v := assocNode(e.Key.Replier())
		if int(v) == from || !slices.Contains(nbrs, v) {
			continue
		}
		dst = append(dst, v)
		if len(dst)-base == a.cfg.TopK {
			break
		}
	}
	if len(dst) > base {
		mAssocRuleRouted.Inc()
		return dst
	}
	if a.cfg.Strict {
		// Uncovered under strict deployment: drop; the origin will
		// revert the query to flooding if nothing is found.
		mAssocDrops.Inc()
		return dst
	}
	// Uncovered: locally revert to flooding.
	mAssocFallbacks.Inc()
	return Flood{}.RouteAppend(dst, u, from, q, nbrs)
}

// ObserveHit implements peer.Router: support for {from} -> {via} grows by
// one per returned hit, with periodic exponential decay. This is the
// write plane — the observation is consumed by the learner and surfaces
// in routing decisions when the publisher's policy next publishes. Under
// core.PublishSync that is immediately when the hit moves a rule's rank or
// membership; a hit that moves neither keeps the served snapshot and
// allocates nothing.
func (a *Assoc) ObserveHit(u, from int, _ peer.Meta, via int) {
	mAssocHits.Inc()
	if via == u {
		// The hit matched at this node itself; there is no next-hop
		// consequent to learn.
		return
	}
	a.learn.Observe(assocHost(from), assocHost(via))
}

// Consequents returns the published consequent neighbors for queries
// arriving from antecedent, ordered by descending support (ties by id).
// The topology-adaptation extension uses this to answer "to which node
// would you forward queries from me?" (§VI). Like Route, it reads the
// current snapshot and is safe under concurrency.
func (a *Assoc) Consequents(antecedent int) []int32 {
	hosts := a.learn.View().Consequents(assocHost(antecedent), 0)
	out := make([]int32, len(hosts))
	for i, h := range hosts {
		out[i] = assocNode(h)
	}
	return out
}

// AdoptShortcut registers that this node now links directly to w, the
// node its neighbor v used to forward this node's queries to (§VI
// adaptation): every rule {a} -> {v} gains a sibling {a} -> {w} with
// marginally higher support, so the next query prefers the shortcut and
// the preference is reinforced only if it actually produces hits. A
// structural change to the rule table, it publishes unconditionally.
func (a *Assoc) AdoptShortcut(v, w int32) {
	hv, hw := assocHost(int(v)), assocHost(int(w))
	a.learn.Update(func(idx *core.PairIndex) {
		// Collect first: Range must not see the index change under it.
		type adoption struct {
			ante trace.HostID
			sup  float64
		}
		var ups []adoption
		idx.Range(func(k core.PairKey, sup float64) bool {
			if k.Replier() == hv && sup >= a.cfg.Threshold {
				ups = append(ups, adoption{k.Source(), sup})
			}
			return true
		})
		for _, u := range ups {
			if idx.Support(u.ante, hw) < u.sup {
				idx.Set(u.ante, hw, u.sup*1.01)
			}
		}
	})
}

// PublishNow forces an immediate snapshot publication regardless of the
// configured policy — the escape hatch that resumes serving fresh rules
// after a publication stall (and the chaos harness's lever for staging
// one).
func (a *Assoc) PublishNow() {
	a.learn.Publish()
}

// RuleCount reports the number of rules in the published snapshot (for
// instrumentation).
func (a *Assoc) RuleCount() int {
	return a.learn.View().Len()
}

// Snapshot publishes the learner's current rules and returns them — the
// immutable state a checkpoint persists (core.RuleSnapshot.Marshal) and a
// warm restart feeds back through Restore. It publishes rather than
// returning the served snapshot, whose supports may trail the learner's.
func (a *Assoc) Snapshot() *core.RuleSnapshot {
	return a.learn.Publish()
}

// Restore seeds the learn plane from a persisted snapshot at discounted
// support and publishes, returning the restored rule count. The restore
// merges with what this router has already learned. See
// core.Publisher.Restore for the discount and version semantics.
func (a *Assoc) Restore(s *core.RuleSnapshot, discount float64) int {
	return a.learn.Restore(s, discount).Len()
}

// RoutingIndex approximates the compound routing indices of Crespo and
// Garcia-Molina [10]: each node holds, per neighbor, the number of
// documents per category reachable through that neighbor within a fixed
// horizon, and forwards queries to the TopK neighbors with the most
// matching documents. The index is built centrally from the topology and
// placement (the paper's system builds it by aggregation; the information
// content is the same, which is what the comparison needs).
type RoutingIndex struct {
	TopK  int
	index map[int32]map[trace.InterestID]int // neighbor -> category -> docs
}

// Name implements peer.Router.
func (r *RoutingIndex) Name() string { return "routing-index" }

// Walk implements peer.Router.
func (r *RoutingIndex) Walk() bool { return false }

// Route implements peer.Router.
func (r *RoutingIndex) Route(u, from int, q peer.Meta, nbrs []int32) []int32 {
	type cand struct {
		v    int32
		docs int
	}
	var cands []cand
	for _, v := range nbrs {
		if int(v) == from {
			continue
		}
		if d := r.index[v][q.Category]; d > 0 {
			cands = append(cands, cand{v, d})
		}
	}
	if len(cands) == 0 {
		return Flood{}.Route(u, from, q, nbrs)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].docs != cands[j].docs {
			return cands[i].docs > cands[j].docs
		}
		return cands[i].v < cands[j].v
	})
	k := r.TopK
	if k <= 0 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int32, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.v)
	}
	return out
}

// ObserveHit implements peer.Router.
func (r *RoutingIndex) ObserveHit(int, int, peer.Meta, int) {}

// BuildRoutingIndices precomputes a RoutingIndex for every node: a
// depth-limited BFS from each node attributes every reachable document to
// the first hop that reaches it.
func BuildRoutingIndices(g *overlay.Graph, hosted func(u int) []trace.InterestID, horizon, topK int) []*RoutingIndex {
	n := g.N()
	out := make([]*RoutingIndex, n)
	depth := make([]int, n)
	firstHop := make([]int32, n)
	for u := 0; u < n; u++ {
		idx := make(map[int32]map[trace.InterestID]int)
		for i := range depth {
			depth[i] = -1
		}
		depth[u] = 0
		queue := []int{u}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if depth[x] >= horizon {
				continue
			}
			for _, w := range g.Neighbors(x) {
				if depth[w] >= 0 {
					continue
				}
				depth[w] = depth[x] + 1
				if x == u {
					firstHop[w] = w
				} else {
					firstHop[w] = firstHop[x]
				}
				queue = append(queue, int(w))
				hop := firstHop[w]
				m := idx[hop]
				if m == nil {
					m = make(map[trace.InterestID]int)
					idx[hop] = m
				}
				for _, c := range hosted(int(w)) {
					m[c]++
				}
			}
		}
		out[u] = &RoutingIndex{TopK: topK, index: idx}
	}
	return out
}
