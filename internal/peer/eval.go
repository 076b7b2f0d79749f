package peer

import (
	"arq/internal/content"
	"arq/internal/stats"
	"arq/internal/trace"
)

// This file is the engine-independent query lifecycle: the per-delivery
// evaluation rules and the workload draw order that the engine in
// peer/flat and the map-based oracle in peer/oracle must agree on. Each
// used to carry its own copy of these decisions inline; extracting them
// here is what lets the golden tests pin them to identical per-query
// stats.

// QuerySpec is the full per-query semantics every engine consumes: the
// TTL bound, the optional top-k termination budget, and the fallback
// flood marker. The zero TopK is the classic TTL-exhaust query, byte
// identical to the historical lifecycle.
type QuerySpec struct {
	// TTL bounds forwards after the origin.
	TTL int
	// TopK, when positive, makes the query a top-k search (Akbarinia et
	// al.: stop after the best k answers instead of exhausting TTL):
	// every hit node stops forwarding, and once TopK hits are collected
	// every copy still in flight is absorbed on arrival. 0 runs to TTL
	// exhaustion.
	TopK int
	// FloodPhase marks the origin-level revert-to-flooding reissue
	// (Meta.FloodPhase).
	FloodPhase bool
}

// DeliveryOutcome is the fate of one query copy arriving at a node,
// decided by rules shared across all engines. The engine owns transport
// (queues, frontiers) and bookkeeping state; the outcome tells
// it what this delivery means.
type DeliveryOutcome struct {
	// Duplicate: flood-mode duplicate suppression fired — count it and
	// stop. Never set under walker semantics.
	Duplicate bool
	// First: first receipt at this node — record visited/parent state
	// and count the node as reached.
	First bool
	// Hit: matching content found on first receipt — count the hit and
	// propagate a query-hit along the reverse path.
	Hit bool
	// Terminate: do not forward — a walker landed on matching content,
	// or a top-k hit pruned its subtree (see QuerySpec.TopK).
	Terminate bool
	// Forward: consult the router and forward (TTL remaining and neither
	// suppressed nor terminated).
	Forward bool
	// Absorbed: the query's top-k budget was already met, so this copy
	// dies on arrival — count nothing, forward nothing.
	Absorbed bool
}

// evalHostedDelivery applies the shared query-lifecycle rules to one
// delivery: a node receives a copy of a query with ttl forwards still
// allowed after it. hosts reports whether the node shares content in the
// queried category; matches at the origin itself never count (a user
// searches for content they lack), so the caller must already have
// excluded the origin. visited reports whether the node has processed
// this query before (per the engine's dedup state); walk selects walker
// semantics (no duplicate suppression, terminate on matching content).
func evalHostedDelivery(hosts, walk, visited bool, ttl int) DeliveryOutcome {
	var o DeliveryOutcome
	o.First = !visited
	if !walk && !o.First {
		o.Duplicate = true
		return o
	}
	o.Hit = hosts && o.First
	if hosts && walk {
		o.Terminate = true
		return o
	}
	o.Forward = ttl > 0
	return o
}

// EvalHostedSpec is the spec-aware delivery evaluation: the lifecycle
// rules extended with the query's top-k budget. hits is how many hits the
// query has collected so far (the engine's counter): a copy that arrives
// once the budget is met is absorbed, not deduplicated, not counted as
// reaching a node, never forwarded. The budget logic
// lives here, in one place, so no engine carries its own copy of the
// termination rules. Engines resolve content hosting themselves (the flat
// engine's bitset rows); the caller must already have excluded the origin
// from hosts.
func EvalHostedSpec(hosts, walk, visited bool, ttl, hits int, spec QuerySpec) DeliveryOutcome {
	if spec.TopK > 0 && hits >= spec.TopK {
		return DeliveryOutcome{Absorbed: true}
	}
	o := evalHostedDelivery(hosts, walk, visited, ttl)
	if o.Hit && spec.TopK > 0 {
		// Every hit of a top-k query prunes its subtree.
		o.Terminate = true
		o.Forward = false
	}
	return o
}

// WorkloadJob is one pre-drawn query of a workload: origins uniform over
// the model's query-issuing nodes (all nodes without a role split),
// categories drawn from each origin's interest profile.
type WorkloadJob struct {
	Origin   int
	Category trace.InterestID
}

// DrawWorkload pre-draws nQueries jobs from rng in the canonical order
// (origin, then category, per query). Every workload driver —
// routing.RunWorkload, the chaos drills' origin loop and the tests that
// replay a workload on two engines — draws through this one function, so
// a fixed seed yields the same (origin, category) list regardless of
// which engine replays it.
func DrawWorkload(rng *stats.RNG, m *content.Model, n, nQueries int) []WorkloadJob {
	jobs := make([]WorkloadJob, nQueries)
	for i := range jobs {
		jobs[i].Origin = m.DrawOrigin(rng, n)
		jobs[i].Category = m.DrawQuery(rng, jobs[i].Origin)
	}
	return jobs
}

// RouteAppender is an optional Router fast path for allocation-free
// engines: RouteAppend appends the chosen forwarding targets to dst and
// returns it, instead of allocating a fresh slice per routing decision
// the way Route must (its contract forbids aliasing nbrs). An
// implementation must choose exactly the neighbors Route would, in the
// same order. The flat engine (peer/flat) detects the capability at
// construction and routes through it — on a million-node flood this
// removes one short-lived allocation per processed node per query.
type RouteAppender interface {
	RouteAppend(dst []int32, u, from int, q Meta, nbrs []int32) []int32
}

// HitsObserver is an optional Router fast path for engines that deliver a
// query's hits at one node together: ObserveHits(u, from, q, vias) must
// learn exactly what ObserveHit(u, from, q, via) for every via of vias, in
// order, would. vias is only read during the call. The flat engine
// (peer/flat) defers every hit observation to the end of its query and
// then hands each observing node its hits in one call, through this
// capability when the router has it and one ObserveHit per hit otherwise;
// a learner then locks, counts and publishes once per node per query.
type HitsObserver interface {
	ObserveHits(u, from int, q Meta, vias []int32)
}

// Broadcaster is an optional Router marker for pure stateless flooding:
// the router promises that Route always selects every neighbor except
// the upstream sender, in neighbor order, and that ObserveHit is a
// no-op. An engine that owns its message buffers can then fan out
// directly without materializing the chosen-neighbor list — and skip
// hit-observation dispatch entirely: the flat engine's million-node
// flood path records no hit observations at all, and its other loops
// hand a broadcasting node none when they deliver a query's hits. Only
// routers meeting both promises may return true.
type Broadcaster interface {
	Broadcasts() bool
}

// QueryEngine is the sequential query-execution surface shared by the
// flat struct-of-arrays engine (peer/flat) and the oracle Engine:
// driver-level search strategies (internal/routing) and workload drivers
// are written against it, so every strategy runs unchanged on either.
type QueryEngine interface {
	// Nodes returns the overlay size.
	Nodes() int
	// ContentModel returns the engine's content placement.
	ContentModel() *content.Model
	// RunQuerySpec injects one query and simulates it to quiescence under
	// full QuerySpec semantics: TTL, top-k budget, and the flood phase of
	// the origin-level revert-to-flooding reissue.
	RunQuerySpec(origin int, category trace.InterestID, spec QuerySpec) Stats
}

// DynamicEngine is the dynamics surface of an engine: the notifications
// a scenario runner issues after mutating the shared content model or a
// node's peer between queries (churn, content shocks). Both engines read
// the live overlay.Graph, so a rewired edge needs no notification. The
// flat engine snapshots hosting into a bitset at construction and
// patches it on HostedChanged; the oracle Engine reads the live content
// model, so its HostedChanged is a no-op. Never call while a query is in
// flight.
type DynamicEngine interface {
	QueryEngine
	// HostedChanged reports node u's hosted categories changing from old
	// to now (content model already updated).
	HostedChanged(u int, old, now []trace.InterestID)
	// RouterReset replaces node u's router — a fresh peer forgets the
	// learned state of the one it replaced.
	RouterReset(u int, r Router)
}
