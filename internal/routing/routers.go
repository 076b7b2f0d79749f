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
	"sync"
	"sync/atomic"
	"time"

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
// atomics; routers on distinct nodes record concurrently under ActorNet.
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
	// stay below Threshold; 0 selects the default 0.25.
	Floor float64
	// Strict selects the paper's deployment: a node with no rule for the
	// query's upstream drops it, and the *origin* reverts the whole query
	// to flooding if no hits come back (use AssocTwoPhase). Non-strict
	// nodes locally fall back to flooding instead.
	Strict bool
	// Publish selects when the learn plane publishes a fresh routing
	// snapshot for the serve plane (see core.PublishPolicy). The zero
	// value is core.PublishSync: every observation publishes, so a
	// sequential deployment routes on fully current rules — the exact
	// pre-split behaviour. Concurrent deployments typically choose
	// core.PublishOnChange or core.PublishEpoch to amortize snapshot
	// builds over many observations.
	Publish core.PublishPolicy
	// PublishEvery is the epoch length for core.PublishEpoch (default 64).
	PublishEvery int
	// Shards splits the learn plane into that many single-writer index
	// shards keyed by the antecedent (core.ShardedPairIndex), so hits
	// observed for independent upstream neighbors learn concurrently
	// without sharing a lock. 0 or 1 keeps today's single mutex-guarded
	// learner — the exact pre-sharding code path. On a sequential
	// observation stream both paths produce identical rules (sharding
	// only partitions the table; per-pair count histories are unchanged),
	// so Shards trades nothing but memory for write parallelism.
	Shards int
	// Batch, when positive, switches the learn plane to amortized batch
	// application: observed hits accumulate in a core.ObsBatch and fold
	// into the index Batch at a time (one shard-lock round-trip per
	// batch instead of per observation), with decay still announced at
	// exactly the same observation ordinals — a batch spanning a
	// DecayEvery boundary is split there, so the decay cadence is
	// bit-identical to the per-observation plane. Values above
	// core.MaxObsBatch are clamped. The zero value keeps the
	// per-observation write plane — the exact pre-batching code path,
	// pinned by the 8000-step reference test. Batching trades serve-plane
	// freshness (up to Batch-1 observations sit unapplied until the next
	// flush; see Assoc.FlushObs) for learn throughput; final state after
	// a flush is identical to unbatched application of the same stream.
	Batch int
	// StaleObs, when positive, bounds how far the served snapshot may
	// lag the learn plane: once that many observations have been
	// absorbed since the last publish, Route stops trusting the decayed
	// rules and falls back to flooding (counted by
	// routing.assoc.stale_fallbacks) until a publish catches the serve
	// plane up. 0 disables the bound — rules are served no matter how
	// stale, the historical behaviour.
	StaleObs int
	// StaleAge is the wall-clock analogue of StaleObs: a snapshot older
	// than this also degrades to flooding. 0 disables it.
	StaleAge time.Duration
}

// DefaultAssocConfig returns the deployment parameters used by the network
// experiments: synchronous publication (exact sequential semantics) with
// the default memory floor.
func DefaultAssocConfig() AssocConfig {
	return AssocConfig{TopK: 2, Threshold: 2, Decay: 0.5, DecayEvery: 64, Floor: defaultAssocFloor}
}

// defaultAssocFloor is the default AssocConfig.Floor.
const defaultAssocFloor = 0.25

// Assoc is the paper's contribution deployed as an online router: the node
// mines {upstream neighbor} -> {neighbor that returned hits} rules from
// the query/hit traffic it relays, forwards covered queries to the top
// consequents only, and falls back to flooding for uncovered queries
// (§III-B: "if hits aren't found ... the node can still revert to
// flooding"). Queries originated locally use a distinct antecedent slot.
//
// The rule lifecycle is split into two planes. The write plane
// (assocLearner) owns the decay-mode core.PairIndex — the same engine the
// simulator's maintenance policies run on — and consumes hit observations
// under a mutex. The read plane is Route/Consequents/RuleCount serving
// lock-free from the immutable snapshots the learner publishes through a
// core.Publisher, so any number of goroutines can route concurrently
// while learning proceeds — reads never contend with writes.
type Assoc struct {
	cfg   AssocConfig
	pub   *core.Publisher
	learn assocWritePlane
}

// assocWritePlane is the learner behind an Assoc: the unsharded
// mutex-guarded assocLearner (Shards <= 1, the pinned reference path),
// the shardedAssocLearner built on core.ShardedPairIndex, or the
// batchedAssocLearner that amortizes shard locking over whole batches.
// flush forces any buffered observations into the index — a no-op for
// the per-observation learners, which never buffer.
type assocWritePlane interface {
	observeHit(ante, via trace.HostID)
	adoptShortcut(hv, hw trace.HostID)
	flush()
}

// assocLearner is the single-writer plane of the association router: it
// owns the support index, applies hit observations and periodic decay,
// and feeds the publisher. The mutex serializes writers; readers never
// take it.
type assocLearner struct {
	mu   sync.Mutex
	cfg  AssocConfig
	idx  *core.PairIndex
	pub  *core.Publisher
	seen int
}

// observeHit folds one {ante} -> {via} observation into the index,
// decaying at the configured cadence, and lets the publisher apply its
// policy. Between decay steps the observation moved exactly one pair, so
// the publisher is told which and can derive the next snapshot from the
// served one; a decay step touches every pair and takes the full rebuild.
func (l *assocLearner) observeHit(ante, via trace.HostID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.idx.AddPair(ante, via)
	l.seen++
	if l.seen%l.cfg.DecayEvery == 0 {
		l.idx.Decay(l.cfg.Decay, l.cfg.Floor)
		l.pub.Observe()
		return
	}
	l.pub.ObservePair(core.PackPair(ante, via), now)
}

// adoptShortcut grafts {a} -> {hw} siblings for every active rule
// {a} -> {hv} (see Assoc.AdoptShortcut) and publishes unconditionally.
func (l *assocLearner) adoptShortcut(hv, hw trace.HostID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, u := range collectAdoptions(l.idx.Range, hv, l.cfg.Threshold) {
		if l.idx.Support(u.ante, hw) < u.sup {
			l.idx.Set(u.ante, hw, u.sup*1.01)
		}
	}
	l.pub.Publish()
}

// flush implements assocWritePlane: the per-observation learner never
// buffers.
func (l *assocLearner) flush() {}

// shardedAssocLearner is the parallel write plane: observations land in
// the shard owning their antecedent, so hits relayed for independent
// upstream neighbors never contend. The decay cadence is driven by one
// shared atomic observation counter — on a sequential stream it fires at
// exactly the same steps as the unsharded learner's seen counter, which
// is what keeps the two paths rule-for-rule identical.
type shardedAssocLearner struct {
	cfg  AssocConfig
	idx  *core.ShardedPairIndex
	pub  *core.Publisher
	seen atomic.Int64
}

func (l *shardedAssocLearner) observeHit(ante, via trace.HostID) {
	l.idx.AddPair(ante, via)
	if n := l.seen.Add(1); n%int64(l.cfg.DecayEvery) == 0 {
		l.idx.Decay(l.cfg.Decay, l.cfg.Floor)
	}
	l.pub.Observe()
}

func (l *shardedAssocLearner) adoptShortcut(hv, hw trace.HostID) {
	// Collect outside the per-shard locks (Range holds them; Set must
	// not run inside the callback), then apply. The writes race benignly
	// with concurrent observations — same as any interleaved learning.
	for _, u := range collectAdoptions(l.idx.Range, hv, l.cfg.Threshold) {
		if l.idx.Support(u.ante, hw) < u.sup {
			l.idx.Set(u.ante, hw, u.sup*1.01)
		}
	}
	l.pub.Publish()
}

// flush implements assocWritePlane: the sharded per-observation learner
// never buffers.
func (l *shardedAssocLearner) flush() {}

// batchedAssocLearner is the amortized write plane (AssocConfig.Batch):
// observations accumulate in an ObsBatch under a producer mutex and fold
// into the sharded index one batch at a time via AddBatch — each touched
// shard's lock taken once per batch. Decay cadence is preserved exactly:
// a flush splits the batch at every DecayEvery boundary and announces
// the (lazy) decay at that boundary, so the observation ordinals at
// which decay fires are bit-identical to the per-observation learners'.
// The publisher sees ObserveN(segment) — at most one policy check per
// segment, the batched granularity of staleness.
type batchedAssocLearner struct {
	mu   sync.Mutex
	cfg  AssocConfig
	idx  *core.ShardedPairIndex
	pub  *core.Publisher
	buf  *core.ObsBatch
	seen int64 // observations applied (not merely buffered), guarded by mu
}

func (l *batchedAssocLearner) observeHit(ante, via trace.HostID) {
	l.mu.Lock()
	if l.buf.Append(ante, via) {
		l.flushLocked()
	}
	l.mu.Unlock()
}

// flushLocked applies the buffered observations, segmenting at decay
// boundaries. Caller holds l.mu.
func (l *batchedAssocLearner) flushLocked() {
	obs := l.buf.Obs()
	for len(obs) > 0 {
		// Observations left before the next DecayEvery boundary.
		seg := l.cfg.DecayEvery - int(l.seen%int64(l.cfg.DecayEvery))
		if seg > len(obs) {
			seg = len(obs)
		}
		l.idx.AddBatch(obs[:seg])
		l.seen += int64(seg)
		if l.seen%int64(l.cfg.DecayEvery) == 0 {
			l.idx.Decay(l.cfg.Decay, l.cfg.Floor)
		}
		l.pub.ObserveN(seg)
		obs = obs[seg:]
	}
	l.buf.Reset()
}

func (l *batchedAssocLearner) flush() {
	l.mu.Lock()
	if l.buf.Len() > 0 {
		l.flushLocked()
	}
	l.mu.Unlock()
}

// adoptShortcut flushes buffered observations first — the grafted
// supports must be computed over fully applied state, matching the
// per-observation learners — then adopts and publishes.
func (l *batchedAssocLearner) adoptShortcut(hv, hw trace.HostID) {
	l.mu.Lock()
	if l.buf.Len() > 0 {
		l.flushLocked()
	}
	for _, u := range collectAdoptions(l.idx.Range, hv, l.cfg.Threshold) {
		if l.idx.Support(u.ante, hw) < u.sup {
			l.idx.Set(u.ante, hw, u.sup*1.01)
		}
	}
	l.pub.Publish()
	l.mu.Unlock()
}

// adoption is one active rule {ante} -> {v} whose support a shortcut to w
// should inherit (plus epsilon).
type adoption struct {
	ante trace.HostID
	sup  float64
}

// collectAdoptions gathers the active rules pointing at hv from either
// index flavor's Range.
func collectAdoptions(rangeFn func(func(core.PairKey, float64) bool), hv trace.HostID, threshold float64) []adoption {
	var ups []adoption
	rangeFn(func(k core.PairKey, sup float64) bool {
		if k.Replier() == hv && sup >= threshold {
			ups = append(ups, adoption{k.Source(), sup})
		}
		return true
	})
	return ups
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

// NewAssoc returns an association-rule router for one node.
func NewAssoc(cfg AssocConfig) *Assoc {
	if cfg.TopK <= 0 {
		cfg.TopK = 2
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		cfg.Decay = 0.5
	}
	if cfg.DecayEvery <= 0 {
		cfg.DecayEvery = 64
	}
	if cfg.Floor <= 0 || cfg.Floor >= cfg.Threshold {
		cfg.Floor = defaultAssocFloor
		if cfg.Floor >= cfg.Threshold {
			cfg.Floor = cfg.Threshold / 8
		}
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 64
	}
	if cfg.Batch > core.MaxObsBatch {
		cfg.Batch = core.MaxObsBatch
	}
	if cfg.Batch > 0 {
		// The batched plane always runs on the sharded index (one shard
		// is fine — the batch amortizes that single lock too), with
		// flat-table shards: once locking is amortized, the builtin
		// map's per-observation cost is the bottleneck.
		shards := cfg.Shards
		if shards < 1 {
			shards = 1
		}
		idx := core.NewShardedFlatDecayIndex(cfg.Threshold, shards)
		pub := core.NewShardedPublisher(idx, core.PublisherConfig{
			Policy: cfg.Publish, Epoch: cfg.PublishEvery,
		})
		return &Assoc{cfg: cfg, pub: pub, learn: &batchedAssocLearner{
			cfg: cfg, idx: idx, pub: pub, buf: core.NewObsBatch(cfg.Batch),
		}}
	}
	if cfg.Shards > 1 {
		idx := core.NewShardedDecayIndex(cfg.Threshold, cfg.Shards)
		pub := core.NewShardedPublisher(idx, core.PublisherConfig{
			Policy: cfg.Publish, Epoch: cfg.PublishEvery,
		})
		return &Assoc{cfg: cfg, pub: pub, learn: &shardedAssocLearner{cfg: cfg, idx: idx, pub: pub}}
	}
	idx := core.NewDecayIndex(cfg.Threshold)
	pub := core.NewPublisher(idx, core.PublisherConfig{
		Policy: cfg.Publish, Epoch: cfg.PublishEvery,
	})
	return &Assoc{cfg: cfg, pub: pub, learn: &assocLearner{cfg: cfg, idx: idx, pub: pub}}
}

// Name implements peer.Router.
func (a *Assoc) Name() string { return "assoc" }

// Walk implements peer.Router.
func (a *Assoc) Walk() bool { return false }

// Route implements peer.Router: RouteAppend into a fresh slice.
func (a *Assoc) Route(u, from int, q peer.Meta, nbrs []int32) []int32 {
	return a.RouteAppend(nil, u, from, q, nbrs)
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
	if (a.cfg.StaleObs > 0 || a.cfg.StaleAge > 0) &&
		a.pub.Stale(int64(a.cfg.StaleObs), a.cfg.StaleAge) {
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
	for _, e := range a.pub.View().Run(assocHost(from)) {
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
// in routing decisions when the publisher's policy next publishes
// (immediately under core.PublishSync).
func (a *Assoc) ObserveHit(u, from int, _ peer.Meta, via int) {
	mAssocHits.Inc()
	if via == u {
		// The hit matched at this node itself; there is no next-hop
		// consequent to learn.
		return
	}
	a.learn.observeHit(assocHost(from), assocHost(via))
}

// Consequents returns the published consequent neighbors for queries
// arriving from antecedent, ordered by descending support (ties by id).
// The topology-adaptation extension uses this to answer "to which node
// would you forward queries from me?" (§VI). Like Route, it reads the
// current snapshot and is safe under concurrency.
func (a *Assoc) Consequents(antecedent int) []int32 {
	hosts := a.pub.View().Consequents(assocHost(antecedent), 0)
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
	a.learn.adoptShortcut(assocHost(int(v)), assocHost(int(w)))
}

// PublishNow forces an immediate snapshot publication regardless of the
// configured policy — the escape hatch that resumes serving fresh rules
// after a publication stall (and the chaos harness's lever for staging
// one). Buffered observations (AssocConfig.Batch) are flushed first, so
// the snapshot reflects everything observed so far.
func (a *Assoc) PublishNow() {
	a.learn.flush()
	a.pub.Publish()
}

// FlushObs forces any observations buffered by the batched learn plane
// (AssocConfig.Batch) into the index without publishing. A no-op on the
// per-observation planes. After FlushObs, the learn-plane state is
// identical to unbatched application of the same observation stream.
func (a *Assoc) FlushObs() {
	a.learn.flush()
}

// SnapshotLag reports how many observations the learn plane has
// absorbed since the snapshot being served was published.
func (a *Assoc) SnapshotLag() int64 {
	return a.pub.Lag()
}

// RuleCount reports the number of rules in the published snapshot (for
// instrumentation).
func (a *Assoc) RuleCount() int {
	return a.pub.View().Len()
}

// SnapshotVersion reports the version of the currently served snapshot
// (0 until the first publish).
func (a *Assoc) SnapshotVersion() uint64 {
	return a.pub.Version()
}

// Snapshot returns the currently served rule snapshot — the immutable
// state a checkpoint persists (core.RuleSnapshot.Marshal) and a warm
// restart feeds back through Restore.
func (a *Assoc) Snapshot() *core.RuleSnapshot {
	return a.pub.View()
}

// Restore seeds the learn plane from a persisted snapshot at discounted
// support and publishes, returning the restored rule count. Buffered
// observations are flushed first so the restore merges with — never
// reorders around — what this router has already learned. See
// core.Publisher.Restore for the discount and version semantics.
func (a *Assoc) Restore(s *core.RuleSnapshot, discount float64) (int, error) {
	a.learn.flush()
	out, err := a.pub.Restore(s, discount)
	if err != nil {
		return 0, err
	}
	return out.Len(), nil
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
