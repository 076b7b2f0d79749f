// Package flat is the query engine: the struct-of-arrays simulator over
// the peer node/router model that every command, example, drill and
// benchmark runs on, from 150-node chaos soaks to million-node floods.
// The map-based oracle.Engine it grew out of survives only as the oracle
// its goldens compare against.
//
// Layout over behavior: peers are indices into dense slices, adjacency
// is the overlay.Graph itself, read live (one stream.Arena of neighbor
// rows, each a run of one int32 array, so neighbor scans are sequential;
// an edit moves or rewrites the row inside the arena, so churn needs no
// engine patch), message
// delivery is a batched per-TTL-step frontier swap (two slices reused
// across queries — no per-message heap, channel, or allocation), and
// GUID dedup is an epoch-stamped visited array (a rotating window:
// bumping the epoch retires the whole previous query's entries in O(1),
// so no per-node maps ever grow on the hot path). A pure flood engine
// runs a BFS instead (runFlood): one queue of targets, one pass per
// depth, and dedup at the sender on a one-bit-per-node mark set that
// the query clears behind itself; every other strategy deduplicates a
// copy when it arrives.
//
// Learning is deferred to the end of each query: a returning hit is
// logged as its reverse-path trail, and once the query is over each
// observing node gets all of its hits in one call, in the order it would
// have received them (flushHits, through peer.HitsObserver when the
// router has it). That is exact, because a node observes a hit only after
// it has routed the query, which outside walker queries it does once (see
// peer.Router), and it lets a learner lock, count and publish once per
// node per query instead of once per hit.
//
// Behavior is pinned, not approximated: every per-delivery decision
// goes through peer.EvalHostedSpec, frontier-swap order equals
// oracle.Engine's FIFO order (FIFO from a single depth-0 injection IS
// strict BFS depth order — processing depth d only appends depth d+1),
// and router construction order matches the oracle's constructor. The
// golden tests in this package hold per-query stats byte-identical to
// oracle.Engine for all strategies under the same seed, on a perfect
// network (TestEngineGolden) and under a full fault mix
// (TestEngineFaultedGolden). Fault injection is Engine.Fault: when set,
// queries leave the frontier loops for the step-counter loop in
// faulted.go.
package flat

import (
	"slices"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/trace"
)

// noUp is peer.NoUpstream in the engine's int32 index space.
const noUp = int32(peer.NoUpstream)

// msg is one query copy in flight. TTL and hop count are implicit in
// the frontier depth, so a message is just two indices — 8 bytes.
type msg struct {
	to, from int32
}

// Engine is the flat struct-of-arrays engine. It implements
// peer.QueryEngine, so driver-level search strategies (expanding ring,
// shortcuts, two-phase) run on it unchanged. Not safe for concurrent
// use: the scratch arrays are reused across queries.
type Engine struct {
	g       *overlay.Graph
	content *content.Model
	routers []peer.Router

	// Epoch-stamped per-node scratch of the generic and faulted loops,
	// reused across queries: seen[u] == epoch means u has the current
	// query (marked when u processes its first copy), and bumping the
	// epoch retires every entry at once; parent[u] is only meaningful
	// when seen[u] is current. Deliberately two arrays, not one record:
	// dedup touches only seen, and at 4 bytes per node sixteen nodes
	// share a cache line — the denser this array, the more of the
	// frontier's random-access traffic the caches absorb at
	// million-node scale. The flood loop touches neither (it
	// deduplicates on mark and attributes hits by depth).
	epoch  uint32
	seen   []uint32
	parent []int32

	// hostBits is an inverted hosting index: one N-bit row per interest
	// category, rows concatenated (row c is
	// hostBits[c*hostWords:(c+1)*hostWords], bit u set iff u hosts c).
	// A query touches exactly one row — N/8 bytes, cache-resident even
	// at N=1M — so the per-delivery hosting check is a single exact bit
	// test, never a content-model pointer chase. Snapshotted at
	// construction and kept current under dynamics by HostedChanged
	// patches (clear the old categories' bits, set the new). zeroHost
	// backs categories outside the model so the hot loop stays
	// branch-free.
	hostBits  []uint64
	hostWords int
	zeroHost  []uint64

	// The generic loop's frontier buffers, swapped each TTL step: each
	// holds every copy one depth sends.
	cur, next []msg

	// allBcast is set when every router is a broadcasting
	// peer.Broadcaster (a pure flood engine). Non-top-k queries then
	// run runFlood, a BFS that deduplicates at the sender in one pass
	// per depth. Legal only because flood routers are stateless and a
	// flood has no budget to fill on arrival; every other query keeps
	// the generic loop. nBcast counts broadcasting routers so
	// RouterReset can maintain allBcast incrementally.
	allBcast bool
	nBcast   int

	// appenders[u] is non-nil when routers[u] supports the
	// allocation-free peer.RouteAppender fast path; routeBuf is its
	// reused destination. broadcast[u] is set when routers[u] is a
	// peer.Broadcaster — the engine then fans out straight from the
	// graph's row without materializing a chosen-neighbor list at all.
	appenders []peer.RouteAppender
	routeBuf  []int32
	broadcast []bool

	// trails logs the current query's hits for flushHits: per hit, the
	// node it matched at and the node its reverse path stopped being
	// observed at. obsVias is the flush's scatter buffer, one entry per
	// observation. Both are reused across queries.
	trails  []trail
	obsVias []int32

	// pfSink absorbs the prefetch reads in the delivery loop so the
	// compiler cannot discard them; never read back.
	pfSink uint64

	nextID peer.QueryID

	// Fault, when non-nil, injects message and node faults (see
	// internal/fault): forwards may be dropped, duplicated, or delayed
	// (delivered out of BFS order), crashed nodes discard deliveries,
	// and a hit only counts as Found if it survives the reverse path to
	// the origin. Queries then run the step-counter loop in faulted.go,
	// record for record equal to oracle.Engine under the same injector.
	// nil is a perfect network: the frontier loops below, untouched.
	Fault fault.Injector
	// fqueue and fdelayed are the faulted loop's FIFO and delay heap,
	// reused across queries.
	fqueue   []fmsg
	fdelayed delayHeap

	// mark and queue are runFlood's scratch, reused across queries:
	// mark is its dedup set, one bit per node and all zero between
	// queries (1/32 of seen's bytes, so more of a million-node flood's
	// random dedup traffic stays in cache); queue lists the query's
	// reached nodes in BFS order, one depth after another.
	mark  []uint64
	queue []int32
}

// trail is one hit of the current query as its reverse path observed it:
// every node from hit along the parent chain up to, not including, stop
// observes the hit, each through the node before it (hit through itself).
// stop is noUp when the hit reached the origin. The parent array of a
// query never changes once a node is in it, so a trail stands for all of
// the hit's observations until the query ends.
type trail struct {
	hit, stop int32
}

// prefetchDist is the base lookahead of the delivery loops: how many
// frontier entries ahead each loop touches the data it will need.
// Delivery order is data-dependent random access into the seen array
// and the graph's rows; at million-node scale every touch is a DRAM
// miss, and the loop's own dependency chain leaves the memory system
// idle between them. Touching a record 16+ messages early keeps that many misses in
// flight instead of ~1 — worth >2x end-to-end at N=1M, unmeasurable at
// cache-resident sizes. Loops with smaller bodies use multiples of this
// (less work per iteration means less lead time per entry of distance).
const prefetchDist = 16

// NewEngine reads g as the overlay, live: an edit of the graph between
// queries is what the next query routes over. It builds one router per
// node via factory, in node order — the same construction order as the
// oracle (oracle.Engine), so stateful factories (split RNGs, shared
// tables) produce identical routers on either.
func NewEngine(g *overlay.Graph, m *content.Model, factory func(u int) peer.Router) *Engine {
	n := g.N()
	words := (n + 63) / 64
	e := &Engine{
		g:         g,
		content:   m,
		routers:   make([]peer.Router, n),
		seen:      make([]uint32, n),
		parent:    make([]int32, n),
		hostBits:  make([]uint64, m.Categories()*words),
		hostWords: words,
		zeroHost:  make([]uint64, words),
		appenders: make([]peer.RouteAppender, n),
		broadcast: make([]bool, n),
		nextID:    1,
		mark:      make([]uint64, words),
	}
	for u := 0; u < n; u++ {
		e.routers[u] = factory(u)
		if ap, ok := e.routers[u].(peer.RouteAppender); ok {
			e.appenders[u] = ap
		}
		if b, ok := e.routers[u].(peer.Broadcaster); ok && b.Broadcasts() {
			e.broadcast[u] = true
			e.nBcast++
		}
		for _, c := range m.HostedCategories(u) {
			e.hostBits[int(c)*words+u/64] |= 1 << (uint(u) % 64)
		}
	}
	e.allBcast = n > 0 && e.nBcast == n
	return e
}

// HostedChanged implements peer.DynamicEngine: patches the inverted
// host bitset, clearing node u's bit in every old category row and
// setting it in every new one. Never call while a query is in flight.
func (e *Engine) HostedChanged(u int, old, now []trace.InterestID) {
	w := u / 64
	bit := uint64(1) << (uint(u) % 64)
	for _, c := range old {
		if ci := int(c); ci >= 0 && (ci+1)*e.hostWords <= len(e.hostBits) {
			e.hostBits[ci*e.hostWords+w] &^= bit
		}
	}
	for _, c := range now {
		if ci := int(c); ci >= 0 && (ci+1)*e.hostWords <= len(e.hostBits) {
			e.hostBits[ci*e.hostWords+w] |= bit
		}
	}
}

// RouterReset implements peer.DynamicEngine: swaps in a fresh router for
// node u and re-derives its fast-path capabilities (RouteAppender,
// Broadcaster, and the engine-wide allBcast flood gate). Never call
// while a query is in flight.
func (e *Engine) RouterReset(u int, r peer.Router) {
	if e.broadcast[u] {
		e.nBcast--
	}
	e.routers[u] = r
	e.appenders[u] = nil
	if ap, ok := r.(peer.RouteAppender); ok {
		e.appenders[u] = ap
	}
	e.broadcast[u] = false
	if b, ok := r.(peer.Broadcaster); ok && b.Broadcasts() {
		e.broadcast[u] = true
		e.nBcast++
	}
	e.allBcast = e.Nodes() > 0 && e.nBcast == e.Nodes()
}

// Nodes implements peer.QueryEngine.
func (e *Engine) Nodes() int { return e.g.N() }

// ContentModel implements peer.QueryEngine.
func (e *Engine) ContentModel() *content.Model { return e.content }

// RunQuerySpec injects a query at origin for category and simulates it
// to quiescence under full QuerySpec semantics, returning its stats.
// Top-k queries
// take the generic loop even on a pure flood engine: the budget can fill
// mid-frontier, and a copy absorbed by a spent budget is decided when
// it arrives, which the flood loop's sender-side dedup never sees.
func (e *Engine) RunQuerySpec(origin int, category trace.InterestID, spec peer.QuerySpec) peer.Stats {
	ttl := spec.TTL
	id := e.nextID
	e.nextID++
	meta := peer.Meta{ID: id, Origin: origin, Category: category, FloodPhase: spec.FloodPhase}
	var st peer.Stats

	// Advance the dedup window: one epoch per query. On uint32
	// wraparound (once per ~4B queries) the stale stamps could collide,
	// so clear the stamps and restart.
	e.epoch++
	if e.epoch == 0 {
		for i := range e.seen {
			e.seen[i] = 0
		}
		e.epoch = 1
	}

	// One exact bitset row answers every hosting check for this query.
	hb := e.zeroHost
	if c := int(category); c >= 0 && (c+1)*e.hostWords <= len(e.hostBits) {
		hb = e.hostBits[c*e.hostWords : (c+1)*e.hostWords]
	}
	org := int32(origin)

	walk := e.routers[origin].Walk()
	switch {
	case e.Fault != nil:
		e.runFaulted(org, hb, walk, meta, spec, &st)
	case e.allBcast && !walk && spec.TopK == 0:
		e.runFlood(org, hb, ttl, &st)
	default:
		e.runFrontier(org, hb, walk, meta, spec, &st)
	}
	e.flushHits(meta)
	peer.RecordQuery(&st)
	return st
}

// runFrontier is the generic frontier loop: every strategy but a pure
// flood on a perfect network, deduplicating each copy when it arrives.
func (e *Engine) runFrontier(org int32, hb []uint64, walk bool, meta peer.Meta, spec peer.QuerySpec, st *peer.Stats) {
	ttl := spec.TTL
	cur, next := e.cur[:0], e.next[:0]
	cur = append(cur, msg{to: org, from: noUp})

	// One frontier per depth: messages in cur are all at the same hop
	// count, with remaining TTL implied by depth. Within a depth,
	// processing order is append order — exactly oracle.Engine's FIFO.
	for depth := 0; len(cur) > 0; depth++ {
		rem := ttl - depth // forwards still allowed after this node
		for i, m := range cur {
			if i+prefetchDist < len(cur) {
				t := cur[i+prefetchDist].to
				e.pfSink += uint64(e.seen[t]) + uint64(e.g.TouchRow(t))
			}
			u := m.to
			if spec.TopK > 0 && st.Hits >= spec.TopK {
				// Budget met: in-flight copies are absorbed on arrival
				// (the inline mirror of EvalHostedSpec's Absorbed).
				continue
			}
			visited := e.seen[u] == e.epoch
			if !walk && visited {
				st.Duplicates++
				continue
			}
			hosts := u != org && hb[uint(u)/64]>>(uint(u)%64)&1 != 0
			o := peer.EvalHostedSpec(hosts, walk, visited, rem, st.Hits, spec)
			if o.Duplicate {
				st.Duplicates++
				continue
			}
			if o.First {
				e.seen[u] = e.epoch
				e.parent[u] = m.from
				st.NodesReached++
			}

			if o.Hit {
				st.Hits++
				st.HitNodes = append(st.HitNodes, u)
				e.propagateHit(u, m.from, st)
				if !st.Found || depth < st.FirstHitHops {
					st.FirstHitHops = depth
				}
				st.Found = true
			}
			if o.Terminate {
				continue
			}

			if !o.Forward {
				continue
			}
			nbrs := e.g.Neighbors(int(u))
			if e.broadcast[u] {
				// Flooding fans out straight from the graph's row: every
				// neighbor except the sender, in neighbor order —
				// exactly what the router's Route would have chosen.
				before := len(next)
				for _, v := range nbrs {
					if v != m.from {
						next = append(next, msg{to: v, from: u})
					}
				}
				st.QueryMessages += len(next) - before
				continue
			}
			q := meta
			q.TTL = rem
			q.Hops = depth
			chosen := e.routeBuf[:0]
			if ap := e.appenders[u]; ap != nil {
				chosen = ap.RouteAppend(chosen, int(u), int(m.from), q, nbrs)
				e.routeBuf = chosen
			} else {
				chosen = e.routers[u].Route(int(u), int(m.from), q, nbrs)
			}
			st.QueryMessages += len(chosen)
			for _, v := range chosen {
				next = append(next, msg{to: v, from: u})
			}
		}
		cur, next = next, cur[:0]
	}
	// Keep the (possibly grown) buffers for the next query.
	e.cur, e.next = cur, next
}

// runFlood is the loop for an all-broadcast engine — the configuration
// the million-node scale runs use. It is a BFS over one queue of targets
// that deduplicates at the sender, the way a BFS marks a node when it
// discovers it: scanning node u's row sets the mark bit of every
// neighbor and keeps a neighbor's queue slot only if its bit was clear,
// so the queue holds first copies only and a duplicate is counted where
// it is sent, never stored. Depth d is the queue segment [lo, hi), and
// scanning it appends depth d+1 behind it; the hit test then runs over
// that new segment in append order, which is the order the generic loop
// would receive its nodes in.
//
// This is exact on a flood and only there: a copy is a duplicate in
// either loop exactly when its target was reached at an earlier depth or
// by an earlier copy in FIFO order, and which copy arrives first only
// decides which sender that node skips. Top-k queries decide absorption
// on arrival and walkers never deduplicate, so both keep the generic
// loop; FuzzFloodFastPath holds the two loops equal on floods.
// Broadcaster promises ObserveHit is a no-op, so hit attribution needs no
// parent-chain walk: the reverse path from a node discovered at depth d
// has exactly d hops, and neither seen nor parent is touched.
func (e *Engine) runFlood(org int32, hb []uint64, ttl int, st *peer.Stats) {
	// The origin is marked before any row is scanned, so it is never
	// appended and its own content never counts as a hit.
	mark := e.mark
	mark[org/64] |= 1 << (uint(org) % 64)
	q := append(e.queue[:0], org)
	q = q[:cap(q)]
	lo, hi, n, sent := 0, 1, 1, 0

	for depth := 0; depth < ttl && lo < hi; depth++ {
		// Every node past the origin has its sender in its row exactly
		// once (the graph is simple and undirected), and the sender is
		// marked, so back is the count of row entries that are not
		// messages.
		back := b2i(depth > 0)
		for i := lo; i < hi; i++ {
			// The random streams are u's row pointer and columns: touch
			// the pointer a full lookahead window ahead and the columns
			// half a window ahead (by then the pointer is cached, so the
			// column touch is a single unchained load). The window reads
			// on into the depth being appended.
			if i+prefetchDist < n {
				e.pfSink += uint64(e.g.TouchRow(q[i+prefetchDist]))
			}
			if i+prefetchDist/2 < n {
				e.pfSink += uint64(uint32(e.g.TouchCol(q[i+prefetchDist/2])))
			}
			row := e.g.Neighbors(int(q[i]))
			if n+len(row) > len(q) {
				q = append(q[:n], make([]int32, len(row))...)
				q = q[:cap(q)]
			}
			sent += len(row) - back
			// Store-and-advance: every entry is written, only an
			// unmarked target keeps its slot.
			for _, v := range row {
				w, bit := uint(v)/64, uint64(1)<<(uint(v)%64)
				q[n] = v
				n += b2i(mark[w]&bit == 0)
				mark[w] |= bit
			}
		}
		// Hit-test the depth just appended, in append order: the order
		// the generic loop receives its first copies in.
		for _, v := range q[hi:n] {
			if hb[uint(v)/64]>>(uint(v)%64)&1 != 0 {
				st.Hits++
				st.HitNodes = append(st.HitNodes, v)
				st.HitMessages += depth + 1
				if !st.Found {
					st.FirstHitHops = depth + 1
				}
				st.Found = true
			}
		}
		lo, hi = hi, n
	}
	// Every copy sent reached a node for the first time or was a
	// duplicate, and the queue holds each reached node once.
	st.QueryMessages = sent
	st.NodesReached = n
	st.Duplicates = sent - (n - 1)

	// The next query deduplicates on an all-zero set.
	clear(mark)
	e.queue = q
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so runFlood's store-and-advance has no branch on the mark.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// propagateHit routes a query-hit from node u back to the origin along
// the reverse path in the parent array, counting its hop-by-hop messages —
// the exact accounting of oracle.Engine.propagateHit on a perfect network.
// Each node on the way observes which neighbor produced the hit; the
// observations are logged as the hit's trail and delivered by flushHits
// once the query is over.
func (e *Engine) propagateHit(u, upstreamAtU int32, st *peer.Stats) {
	node := upstreamAtU
	for node != noUp {
		st.HitMessages++
		if e.seen[node] != e.epoch {
			// Walker path bookkeeping can lose the trail when a node was
			// first visited by a different walker; stop attribution there.
			break
		}
		node = e.parent[node]
	}
	e.logTrail(u, node)
}

// logTrail records a hit's trail for flushHits. A pure flood engine
// learns nothing (peer.Broadcaster), so it records none.
func (e *Engine) logTrail(hit, stop int32) {
	if !e.allBcast {
		e.trails = append(e.trails, trail{hit: hit, stop: stop})
	}
}

// flushHits delivers the finished query's hit observations: each
// observing node gets all of its hits in one call, in the order the hits
// reached it (observeHits). This is the only place the engine calls a
// router's learning, and deferring it here is exact (peer.Router): a node
// observes a hit only on the hit's reverse path, so it has already routed
// the query, which outside walker queries it does at most once; and a
// router's learning depends only on its own observations in their order,
// so the order the nodes are served in does not matter. Nodes with a
// broadcasting router are skipped, since their ObserveHit is a no-op by
// contract.
//
// The grouping is a counting sort that borrows seen as its per-node
// scratch. Every observer holds the current epoch stamp when the query is
// over, since it processed the query, and d = seen[x]-epoch encodes
// observer x's state through the passes: a count of its hits (d below
// 1<<31), then an offset o into the via buffer (d = ^o, at or above
// 1<<31). The delivery pass restores the stamp, so the next query's epoch
// bump still retires it. Runs are laid out in order of first observation,
// which every pass walks the trails in.
func (e *Engine) flushHits(meta peer.Meta) {
	if len(e.trails) == 0 {
		return
	}
	seen, parent, bcast, ep := e.seen, e.parent, e.broadcast, e.epoch
	n := uint32(0)
	for _, t := range e.trails {
		for x := t.hit; x != t.stop; x = parent[x] {
			if !bcast[x] {
				seen[x]++
				n++
			}
		}
	}
	off := uint32(0)
	for _, t := range e.trails {
		for x := t.hit; x != t.stop; x = parent[x] {
			if d := seen[x] - ep; !bcast[x] && d < 1<<31 {
				seen[x] = ep + ^off // the run's start
				off += d
			}
		}
	}
	vias := slices.Grow(e.obsVias[:0], int(n))[:n]
	for _, t := range e.trails {
		for via, x := t.hit, t.hit; x != t.stop; via, x = x, parent[x] {
			if !bcast[x] {
				o := ^(seen[x] - ep)
				vias[o] = via
				seen[x] = ep + ^(o + 1) // ends at the run's end
			}
		}
	}
	start := uint32(0)
	for _, t := range e.trails {
		for x := t.hit; x != t.stop && start < n; x = parent[x] {
			if !bcast[x] && seen[x] != ep {
				end := ^(seen[x] - ep)
				seen[x] = ep
				e.observeHits(x, meta, vias[start:end])
				start = end
			}
		}
	}
	e.trails, e.obsVias = e.trails[:0], vias
}

// observeHits hands node x its run of the query's hits, with from =
// parent[x]: through peer.HitsObserver when its router has it, one
// ObserveHit per hit otherwise.
func (e *Engine) observeHits(x int32, meta peer.Meta, vias []int32) {
	from := int(e.parent[x])
	if ho, ok := e.routers[x].(peer.HitsObserver); ok {
		ho.ObserveHits(int(x), from, meta, vias)
		return
	}
	for _, via := range vias {
		e.routers[x].ObserveHit(int(x), from, meta, int(via))
	}
}
