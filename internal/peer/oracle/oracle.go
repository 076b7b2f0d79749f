// Package oracle is the map-based deterministic sequential simulator
// kept as the reference oracle for peer/flat, the engine that ships: the
// flat engine's goldens (perfect network, full fault mix, live churn) and
// the scenario and fault tests hold it to this one record for record.
// Only _test.go files import this package (exports_test.go fails a
// non-test importer), so it is kept small and obvious rather than fast.
package oracle

import (
	"container/heap"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/trace"
)

// Engine is the deterministic sequential simulator kept as the reference
// oracle for peer/flat. It owns per-node router instances and replays
// queries one at a time; learning routers accumulate state across
// queries exactly as deployed nodes would.
type Engine struct {
	G       *overlay.Graph
	Content *content.Model
	Routers []peer.Router
	// Fault, when non-nil, injects message and node faults (see
	// internal/fault): forwards may be dropped, duplicated, or delayed
	// (delivered out of BFS order), crashed nodes discard deliveries,
	// and a hit only counts as Found if it survives the reverse path to
	// the origin. nil is a perfect network — the exact historical
	// behaviour, pinned by the golden and equivalence tests.
	Fault  fault.Injector
	nextID peer.QueryID
}

// NewEngine wires a graph, a content model, and one router per node built
// by factory.
func NewEngine(g *overlay.Graph, m *content.Model, factory func(u int) peer.Router) *Engine {
	routers := make([]peer.Router, g.N())
	for u := range routers {
		routers[u] = factory(u)
	}
	return &Engine{G: g, Content: m, Routers: routers, nextID: 1}
}

// Nodes implements peer.QueryEngine.
func (e *Engine) Nodes() int { return e.G.N() }

// ContentModel implements peer.QueryEngine.
func (e *Engine) ContentModel() *content.Model { return e.Content }

// HostedChanged implements peer.DynamicEngine: hosting checks read the
// live content model, so there is no hosting snapshot to patch.
func (e *Engine) HostedChanged(u int, old, now []trace.InterestID) {}

// RouterReset implements peer.DynamicEngine: a churned-in peer starts
// with a fresh router, forgetting its predecessor's learned state.
func (e *Engine) RouterReset(u int, r peer.Router) { e.Routers[u] = r }

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

// RunQuerySpec injects a query at origin for category and simulates it to
// quiescence under full peer.QuerySpec semantics: TTL bound, optional
// top-k termination budget, and the fallback-flood marker. Matches at the
// origin itself are not counted (a user searches for content they lack).
func (e *Engine) RunQuerySpec(origin int, category trace.InterestID, spec peer.QuerySpec) peer.Stats {
	ttl := spec.TTL
	id := e.nextID
	e.nextID++
	meta := peer.Meta{ID: id, Origin: origin, Category: category, FloodPhase: spec.FloodPhase}
	var st peer.Stats

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
	queue := []delivery{{to: origin, from: peer.NoUpstream, ttl: ttl, hops: 0}}
	parent[origin] = peer.NoUpstream
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
			if d.from != peer.NoUpstream {
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
	peer.RecordQuery(&st)
	return st
}

// propagateHit routes a query-hit from node u back to the origin along the
// reverse path recorded in parent, letting each node on the way observe
// which neighbor produced the hit. It reports whether the hit reached the
// origin: always true on a perfect network (a lost walker trail keeps the
// historical delivered semantics), false only when an injected fault
// drops the hit or a node on the reverse path is down.
func (e *Engine) propagateHit(meta peer.Meta, u, upstreamAtU int, parent map[int]int, st *peer.Stats) bool {
	e.Routers[u].ObserveHit(u, upstreamAtU, meta, u)
	via := u
	node := upstreamAtU
	for node != peer.NoUpstream {
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

// evalSpec is peer.EvalHostedSpec for the oracle engine, which resolves
// hosting through the content model.
func evalSpec(m *content.Model, origin, u int, cat trace.InterestID, walk, visited bool, ttl, hits int, spec peer.QuerySpec) peer.DeliveryOutcome {
	if spec.TopK > 0 && hits >= spec.TopK {
		return peer.DeliveryOutcome{Absorbed: true}
	}
	if !walk && visited {
		return peer.DeliveryOutcome{Duplicate: true}
	}
	return peer.EvalHostedSpec(u != origin && m.Hosts(u, cat), walk, visited, ttl, hits, spec)
}
