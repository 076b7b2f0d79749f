// Package peer is the message-level simulator of an unstructured P2P
// network: Gnutella-style query propagation with TTLs and duplicate
// suppression, query-hit messages routed back along the query's reverse
// path, and pluggable per-node routers (flooding, random walks, and the
// paper's association-rule router live in internal/routing).
//
// The package holds the model every engine shares — Router, Meta, Stats,
// QuerySpec, the per-delivery rules and the workload draw in eval.go —
// and nothing else. The engine that ships is peer/flat; its reference
// oracle, the map-based sequential simulator its goldens compare against,
// is peer/oracle, which only _test.go files import.
package peer

import (
	"arq/internal/obsv"
	"arq/internal/trace"
)

// Observability instruments shared by the engines (peer/flat and the
// oracle). Counts are recorded once per completed query from its
// final Stats — the per-delivery hot loops stay untouched.
var (
	mQueries    = obsv.GetCounter("peer.queries")
	mFound      = obsv.GetCounter("peer.queries_found")
	mQueryMsgs  = obsv.GetCounter("peer.query_msgs")
	mHitMsgs    = obsv.GetCounter("peer.hit_msgs")
	mDuplicates = obsv.GetCounter("peer.duplicates")
	mReached    = obsv.GetHistogram("peer.nodes_reached", obsv.SizeBuckets())
)

// RecordQuery folds one completed query's stats into the shared
// instruments. Every engine calls it once per completed query.
func RecordQuery(st *Stats) {
	mQueries.Inc()
	if st.Found {
		mFound.Inc()
	}
	mQueryMsgs.Add(int64(st.QueryMessages))
	mHitMsgs.Add(int64(st.HitMessages))
	mDuplicates.Add(int64(st.Duplicates))
	mReached.Observe(int64(st.NodesReached))
}

// QueryID identifies a query (the GUID of the Gnutella protocol).
type QueryID uint64

// Meta carries the routed state of a query as seen at one node.
type Meta struct {
	ID       QueryID
	Origin   int
	Category trace.InterestID
	TTL      int // remaining forwards allowed after this node
	Hops     int // hops traveled so far
	// FloodPhase marks a fallback reissue: selective routers should
	// flood (while still learning from any hits). Set by
	// QueryEngine.RunQueryPhase for the paper's origin-level
	// revert-to-flooding (§III-B).
	FloodPhase bool
}

// NoUpstream marks a query processed at its origin (no upstream neighbor).
const NoUpstream = -1

// Router decides, per node, which neighbors a query is forwarded to.
// Implementations may keep per-node learning state. The engines are
// sequential and call routers from one goroutine; a deployed servent is
// not (connection goroutines route while a drainer learns), so a router
// that is also used there must make Route safe for concurrent readers
// and serialize learning internally, as routing.Assoc does via its
// learn/serve split.
type Router interface {
	// Name identifies the routing strategy.
	Name() string
	// Route returns the subset of nbrs to forward to. from is the
	// upstream node (NoUpstream at the origin). The returned slice must
	// not alias nbrs.
	Route(u, from int, q Meta, nbrs []int32) []int32
	// ObserveHit informs node u that a hit for q returned through
	// neighbor via; from is the upstream the query had arrived from
	// (NoUpstream at the origin). Learning routers update rules here.
	// An engine may deliver a query's hits after the query has finished:
	// every node observing a hit has already routed the query, and a
	// non-walker query is routed at most once per node, so no decision
	// of the same query can read what its hits teach. A node's hits
	// arrive in the order it would have received them.
	ObserveHit(u, from int, q Meta, via int)
	// Walk reports walker semantics: duplicate suppression is disabled
	// and each arriving copy is forwarded independently (k-random walks),
	// instead of flood semantics (forward only on first receipt).
	Walk() bool
}

// Stats aggregates the cost and outcome of one query.
type Stats struct {
	Found         bool
	Hits          int     // distinct nodes whose content matched
	FirstHitHops  int     // hops to the first matching node (0 if none)
	QueryMessages int     // query copies sent over edges
	HitMessages   int     // hop-by-hop messages of returning query hits
	Duplicates    int     // query copies dropped by duplicate suppression
	NodesReached  int     // distinct nodes that processed the query
	HitNodes      []int32 // distinct nodes whose content matched
}

// Total returns total network messages attributable to the query.
func (s Stats) Total() int { return s.QueryMessages + s.HitMessages }

// Aggregate summarizes a batch of per-query stats.
type Aggregate struct {
	Queries       int
	SuccessRate   float64
	AvgMessages   float64 // query + hit messages per query
	AvgQueryMsgs  float64
	AvgDuplicates float64
	AvgHitHops    float64 // mean first-hit hops over successful queries
	AvgReached    float64
}

// Summarize computes workload-level aggregates.
func Summarize(all []Stats) Aggregate {
	var a Aggregate
	a.Queries = len(all)
	if a.Queries == 0 {
		return a
	}
	succ := 0
	hitHops := 0
	for _, s := range all {
		if s.Found {
			succ++
			hitHops += s.FirstHitHops
		}
		a.AvgMessages += float64(s.Total())
		a.AvgQueryMsgs += float64(s.QueryMessages)
		a.AvgDuplicates += float64(s.Duplicates)
		a.AvgReached += float64(s.NodesReached)
	}
	n := float64(a.Queries)
	a.SuccessRate = float64(succ) / n
	a.AvgMessages /= n
	a.AvgQueryMsgs /= n
	a.AvgDuplicates /= n
	a.AvgReached /= n
	if succ > 0 {
		a.AvgHitHops = float64(hitHops) / float64(succ)
	}
	return a
}
