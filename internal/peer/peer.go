// Package peer is the message-level simulator of an unstructured P2P
// network: Gnutella-style query propagation with TTLs and duplicate
// suppression, query-hit messages routed back along the query's reverse
// path, and pluggable per-node routers (flooding, random walks, and the
// paper's association-rule router live in internal/routing).
//
// The package holds the model every engine shares — Router, Meta, Stats,
// QuerySpec and the per-delivery rules in eval.go — and Engine, the
// map-based deterministic sequential simulator. Engine is the reference
// oracle: the engine that ships is peer/flat, and its goldens (perfect
// network, full fault mix, live churn) and sim's net tests hold it to
// this one record for record. Nothing outside a _test.go file constructs
// an Engine (CI greps for it), so it is kept small and obvious rather
// than fast.
package peer

import (
	"container/heap"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/obsv"
	"arq/internal/overlay"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Observability instruments shared by the engines (Engine here and
// peer/flat). Counts are recorded once per completed query from its
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
// instruments. Engines outside this package (peer/flat) call it once per
// completed query.
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
	// Engine.RunQueryPhase for the paper's origin-level
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

// Engine is the deterministic sequential simulator kept as the reference
// oracle for peer/flat. It owns per-node router instances and replays
// queries one at a time; learning routers accumulate state across
// queries exactly as deployed nodes would.
type Engine struct {
	G       *overlay.Graph
	Content *content.Model
	Routers []Router
	// Fault, when non-nil, injects message and node faults (see
	// internal/fault): forwards may be dropped, duplicated, or delayed
	// (delivered out of BFS order), crashed nodes discard deliveries,
	// and a hit only counts as Found if it survives the reverse path to
	// the origin. nil is a perfect network — the exact historical
	// behaviour, pinned by the golden and equivalence tests.
	Fault  fault.Injector
	nextID QueryID
}

// NewEngine wires a graph, a content model, and one router per node built
// by factory.
func NewEngine(g *overlay.Graph, m *content.Model, factory func(u int) Router) *Engine {
	routers := make([]Router, g.N())
	for u := range routers {
		routers[u] = factory(u)
	}
	return &Engine{G: g, Content: m, Routers: routers, nextID: 1}
}

// Nodes implements QueryEngine.
func (e *Engine) Nodes() int { return e.G.N() }

// ContentModel implements QueryEngine.
func (e *Engine) ContentModel() *content.Model { return e.Content }

// NeighborsChanged implements DynamicEngine: the map engine routes from
// the live graph, so there is no adjacency snapshot to patch.
func (e *Engine) NeighborsChanged(u int, row []int32) {}

// HostedChanged implements DynamicEngine: hosting checks read the live
// content model, so there is no hosting snapshot to patch.
func (e *Engine) HostedChanged(u int, old, now []trace.InterestID) {}

// RouterReset implements DynamicEngine: a churned-in peer starts with a
// fresh router, forgetting its predecessor's learned state.
func (e *Engine) RouterReset(u int, r Router) { e.Routers[u] = r }

// delivery is one query copy in flight.
type delivery struct {
	to, from int
	ttl      int
	hops     int
}

// timedDelivery is a fault-delayed delivery, released when the step
// counter reaches at; seq breaks ties in issue order so delayed traffic
// stays deterministic.
type timedDelivery struct {
	at, seq int
	d       delivery
}

// delayHeap orders delayed deliveries by release step, then issue order.
type delayHeap []timedDelivery

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(timedDelivery)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunQuery injects a query at origin for category with the given TTL and
// simulates it to quiescence, returning its stats. Matches at the origin
// itself are not counted (a user searches for content they lack).
func (e *Engine) RunQuery(origin int, category trace.InterestID, ttl int) Stats {
	return e.RunQueryPhase(origin, category, ttl, false)
}

// RunQueryPhase is RunQuery with control over Meta.FloodPhase, used to
// reissue a failed rule-routed query as a flood.
func (e *Engine) RunQueryPhase(origin int, category trace.InterestID, ttl int, floodPhase bool) Stats {
	return e.RunQuerySpec(origin, category, QuerySpec{TTL: ttl, FloodPhase: floodPhase})
}

// RunQuerySpec runs one query under full QuerySpec semantics: TTL bound,
// optional top-k termination budget, and the fallback-flood marker.
func (e *Engine) RunQuerySpec(origin int, category trace.InterestID, spec QuerySpec) Stats {
	ttl := spec.TTL
	id := e.nextID
	e.nextID++
	meta := Meta{ID: id, Origin: origin, Category: category, FloodPhase: spec.FloodPhase}
	var st Stats

	f := e.Fault
	if f != nil {
		f.Tick()
	}
	walk := e.Routers[origin].Walk()
	// parent[u] = upstream neighbor of u's first receipt (flood mode);
	// used to route hits back and to attribute learning.
	parent := make(map[int]int, 64)
	visited := make(map[int]bool, 64)

	// FIFO queue: breadth-first delivery order, one hop per step. Under
	// fault injection a delayed forward sits in the heap until the step
	// counter (deliveries processed) reaches its release — traffic
	// issued later overtakes it, which is the reordering faults model.
	queue := []delivery{{to: origin, from: NoUpstream, ttl: ttl, hops: 0}}
	parent[origin] = NoUpstream
	var delayed delayHeap
	step, seq := 0, 0

	for len(queue) > 0 || len(delayed) > 0 {
		if len(queue) == 0 {
			// Nothing in flight but delayed traffic: advance the clock
			// to the earliest release.
			step = delayed[0].at
		}
		for len(delayed) > 0 && delayed[0].at <= step {
			queue = append(queue, heap.Pop(&delayed).(timedDelivery).d)
		}
		d := queue[0]
		queue = queue[1:]
		step++
		u := d.to

		if f != nil && u != origin && f.Down(u) {
			// Crashed receiver: the delivery evaporates. The origin is
			// exempt — a peer issuing a query is by definition up.
			fault.ReportDownDrop()
			continue
		}

		o := evalSpec(e.Content, origin, u, category, walk, visited[u], d.ttl, st.Hits, spec)
		if o.Absorbed {
			continue
		}
		if o.Duplicate {
			st.Duplicates++
			continue
		}
		if o.First {
			visited[u] = true
			if d.from != NoUpstream {
				parent[u] = d.from
			}
			st.NodesReached++
		}

		if o.Hit {
			st.Hits++
			st.HitNodes = append(st.HitNodes, int32(u))
			delivered := e.propagateHit(meta, u, d.from, parent, &st)
			// On a perfect network the hit's return is guaranteed;
			// under faults it only counts as Found if it survived the
			// reverse path home.
			if f == nil || delivered {
				if !st.Found || d.hops < st.FirstHitHops {
					st.FirstHitHops = d.hops
				}
				st.Found = true
			}
		}
		if o.Terminate {
			continue
		}

		if !o.Forward {
			continue
		}
		q := meta
		q.TTL = d.ttl
		q.Hops = d.hops
		next := e.Routers[u].Route(u, d.from, q, e.G.Neighbors(u))
		for _, v := range next {
			st.QueryMessages++
			nd := delivery{to: int(v), from: u, ttl: d.ttl - 1, hops: d.hops + 1}
			if f == nil {
				queue = append(queue, nd)
				continue
			}
			fate := f.OnSend(u, int(v))
			if fate.Drop {
				continue
			}
			copies := 1
			if fate.Duplicate || fate.Corrupt {
				// No wire GUIDs here; a corrupted GUID manifests as a
				// delivery that escapes duplicate suppression — same
				// observable as a duplicate.
				copies = 2
			}
			for c := 0; c < copies; c++ {
				if fate.Delay > 0 {
					heap.Push(&delayed, timedDelivery{at: step + fate.Delay, seq: seq, d: nd})
					seq++
				} else {
					queue = append(queue, nd)
				}
			}
		}
	}
	RecordQuery(&st)
	return st
}

// propagateHit routes a query-hit from node u back to the origin along the
// reverse path recorded in parent, letting each node on the way observe
// which neighbor produced the hit. It reports whether the hit reached the
// origin: always true on a perfect network (a lost walker trail keeps the
// historical delivered semantics), false only when an injected fault
// drops the hit or a node on the reverse path is down.
func (e *Engine) propagateHit(meta Meta, u, upstreamAtU int, parent map[int]int, st *Stats) bool {
	e.Routers[u].ObserveHit(u, upstreamAtU, meta, u)
	via := u
	node := upstreamAtU
	for node != NoUpstream {
		st.HitMessages++
		if f := e.Fault; f != nil {
			// The hit crosses via -> node; drops and crashed relays
			// lose it (duplication and delay are irrelevant to a
			// boolean arrival).
			if node != meta.Origin && f.Down(node) {
				fault.ReportDownDrop()
				return false
			}
			if f.OnSend(via, node).Drop {
				return false
			}
		}
		up, ok := parent[node]
		if !ok {
			// Walker path bookkeeping can lose the trail when a node was
			// first visited by a different walker; stop attribution there.
			break
		}
		e.Routers[node].ObserveHit(node, up, meta, via)
		via = node
		node = up
	}
	return true
}

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

// Workload drives nQueries random queries through the engine: origins are
// uniform, categories drawn from each origin's interest profile.
func (e *Engine) Workload(rng *stats.RNG, nQueries, ttl int) []Stats {
	out := make([]Stats, 0, nQueries)
	for _, j := range DrawWorkload(rng, e.Content, e.G.N(), nQueries) {
		out = append(out, e.RunQuery(j.Origin, j.Category, ttl))
	}
	return out
}
