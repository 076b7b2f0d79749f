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

// Observability instruments for the association-rule router, one set for
// every node instance in the process: how often queries ride rules vs fall
// back to flooding (the paper's traffic-reduction mechanism vs its safety
// net), strict-mode drops, and the hit feedback that trains the rules.
// Shared atomics: many routers (every sweep worker's engine) record at once.
var assocCounts struct {
	RuleRouted obsv.Counter `obsv:"routing.assoc.rule_routed"`
	Fallbacks  obsv.Counter `obsv:"routing.assoc.fallback_flood"`
	Drops      obsv.Counter `obsv:"routing.assoc.strict_drops"`
	Hits       obsv.Counter `obsv:"routing.assoc.hits_observed"`
}

func init() { obsv.Default.Register(&assocCounts) }

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

// AssocConfig parameterizes the association-rule router. What it learns
// under is not a choice: every router runs core.DefaultLearnerConfig, the
// live servent's learning constants.
type AssocConfig struct {
	// TopK is how many consequent neighbors a covered query is forwarded
	// to (the paper's "k neighbors with the highest support").
	TopK int
	// Strict selects the paper's deployment: a node with no rule for the
	// query's upstream drops it, and the *origin* reverts the whole query
	// to flooding if no hits come back (use AssocTwoPhase). Non-strict
	// nodes locally fall back to flooding instead.
	Strict bool
}

// DefaultAssocConfig returns the deployment parameters used by the network
// experiments: the live servent's core.DefaultTopK strongest consequents,
// flooding what no rule covers.
func DefaultAssocConfig() AssocConfig {
	return AssocConfig{TopK: core.DefaultTopK}
}

// Assoc is the paper's contribution deployed as an online router: the node
// mines {upstream neighbor} -> {neighbor that returned hits} rules from
// the query/hit traffic it relays, forwards covered queries to the top
// consequents only, and falls back to flooding for uncovered queries
// (§III-B: "if hits aren't found ... the node can still revert to
// flooding"). Queries originated locally use a distinct antecedent slot:
// node ids reach the learner through trace.HostOf, which maps
// peer.NoUpstream to trace.NoHost and never onto a real node.
//
// The rule lifecycle is split into two planes. The write plane is one
// core.Learner: a core.PairIndex it adds to and decays (the count table
// the simulator's maintenance policies also run on), the snapshot it
// serves, and the only mutex. Every hit publishes what routing reads of it
// before ObserveHit (or the ObserveHits call that carries it) returns, so
// the router routes on rule order as current as the hits it has been
// handed. The flat engine hands
// a node its hits when their query is over, all of them in one
// ObserveHits call (one ObserveHit per hit through a wrapper that hides
// ObserveHits); the oracle calls ObserveHit as each hit returns. Either
// way no decision of a query could have read what that query's hits teach
// (peer.Router). The read plane
// is Route/Consequents/RuleCount serving lock-free from the immutable
// snapshots the learner publishes, so any number of goroutines can route
// concurrently while learning proceeds — reads never contend with writes.
//
// The learner sits in the router by value and an overlay's routers sit in
// one slice (NewAssocs), so a node's whole learn/serve plane is a stretch
// of that slab, 96 bytes, and costs no heap object of its own beyond its
// count table's two arrays and its snapshots. What a routing
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

// NewAssocs returns n association-rule routers, one per node of an
// overlay, in one allocation and over one shared config: hand node u
// &as[u].
func NewAssocs(n int, cfg AssocConfig) []Assoc {
	return newAssocs(n, cfg, core.DefaultLearnerConfig())
}

// newAssocs is NewAssocs under learning constants of the caller's choice:
// the seam routing's own tests vary them through.
func newAssocs(n int, cfg AssocConfig, learn core.LearnerConfig) []Assoc {
	if cfg.TopK <= 0 {
		cfg.TopK = core.DefaultTopK
	}
	shared := &assocShared{AssocConfig: cfg, learn: learn}
	as := make([]Assoc, n)
	for u := range as {
		as[u].cfg = shared
		as[u].learn.Init(&shared.learn)
	}
	return as
}

// ForkAssocs returns an independent deep copy of a slab NewAssocs made,
// in one allocation: node u's copy serves u's rules, holds u's supports
// and goes on learning exactly as u would (core.Learner.CloneFrom). The
// copy shares the slab's config. A trained overlay is forked to run
// several arms from one warm-up, each on its own engine; nothing may be
// learning into as meanwhile.
func ForkAssocs(as []Assoc) []Assoc {
	out := make([]Assoc, len(as))
	for u := range as {
		out[u].cfg = as[u].cfg
		out[u].learn.CloneFrom(&as[u].learn)
	}
	return out
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
// contends with learning. The decision is core.Forward's: the first TopK
// consequents of the antecedent's run that are current neighbors other
// than the sender (a rule may name a node churned away since it was
// learned). A run with no such consequent is handled exactly like an
// antecedent with no rules.
func (a *Assoc) RouteAppend(dst []int32, u, from int, q peer.Meta, nbrs []int32) []int32 {
	if q.FloodPhase {
		// Origin-level fallback reissue: behave as a flooder.
		return Flood{}.RouteAppend(dst, u, from, q, nbrs)
	}
	dst, why := core.Forward(a.learn.View(), trace.HostOf(from), a.cfg.TopK, dst, func(h trace.HostID) (int32, bool) {
		v := int32(trace.IDOf(h))
		return v, int(v) != from && slices.Contains(nbrs, v)
	})
	if why == core.RuleHit {
		assocCounts.RuleRouted.Inc()
		return dst
	}
	// No rule and no usable consequent alike: the query is uncovered.
	if a.cfg.Strict {
		// Uncovered under strict deployment: drop; the origin will
		// revert the query to flooding if nothing is found.
		assocCounts.Drops.Inc()
		return dst
	}
	// Uncovered: locally revert to flooding.
	assocCounts.Fallbacks.Inc()
	return Flood{}.RouteAppend(dst, u, from, q, nbrs)
}

// ObserveHit implements peer.Router: support for {from} -> {via} grows by
// one per returned hit, with periodic exponential decay. It is ObserveHits
// with a run of one, handed to the learner without the stack buffer.
func (a *Assoc) ObserveHit(u, from int, _ peer.Meta, via int) {
	assocCounts.Hits.Inc()
	if via != u {
		a.learn.Observe(trace.HostOf(from), []trace.HostID{trace.HostOf(via)})
	}
}

// observeChunk bounds the stack buffer ObserveHits maps ids into; a longer
// run reaches the learner as consecutive runs of at most this many.
const observeChunk = 64

// ObserveHits implements peer.HitsObserver: ObserveHit for every via, in
// order, as one run of the learner. This is the write plane — the run is
// consumed by the learner under one lock and surfaces in routing
// decisions, before ObserveHits returns, when it moves a rule's rank or
// membership; a run that moves neither keeps the served snapshot and
// allocates nothing. A via equal to u is a hit that matched at this node
// itself: it is counted, but there is no next-hop consequent to learn.
func (a *Assoc) ObserveHits(u, from int, _ peer.Meta, vias []int32) {
	assocCounts.Hits.Add(int64(len(vias)))
	src := trace.HostOf(from)
	var buf [observeChunk]trace.HostID
	reps := buf[:0]
	for _, via := range vias {
		if int(via) == u {
			continue
		}
		if len(reps) == len(buf) {
			a.learn.Observe(src, reps)
			reps = reps[:0]
		}
		reps = append(reps, trace.HostOf(int(via)))
	}
	a.learn.Observe(src, reps)
}

// Consequents returns the published consequent neighbors for queries
// arriving from antecedent, ordered by descending support (ties by id).
// The topology-adaptation extension uses this to answer "to which node
// would you forward queries from me?" (§VI). Like Route, it reads the
// current snapshot and is safe under concurrency.
func (a *Assoc) Consequents(antecedent int) []int32 {
	hosts := a.learn.View().Consequents(trace.HostOf(antecedent), 0)
	out := make([]int32, len(hosts))
	for i, h := range hosts {
		out[i] = int32(trace.IDOf(h))
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
	hv, hw := trace.HostOf(int(v)), trace.HostOf(int(w))
	a.learn.Update(func(idx *core.PairIndex) {
		// Collect first: Range must not see the index change under it.
		type adoption struct {
			ante trace.HostID
			sup  float64
		}
		var ups []adoption
		idx.Range(func(k core.PairKey, sup float64) bool {
			if k.Replier() == hv && sup >= a.cfg.learn.Threshold {
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
// core.Learner.Restore for the discount and version semantics.
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
