package flat

import (
	"container/heap"

	"arq/internal/fault"
	"arq/internal/peer"
)

// This file is the engine's faulted query loop, taken whenever
// Engine.Fault is set. It is oracle.Engine's loop on the flat layout — the
// same FIFO, the same step-stamped delay heap, the injector consulted at
// the same points in the same order — so a seeded injector yields the
// oracle's stats record for record (TestEngineFaultedGolden). It lives
// apart from RunQuerySpec's frontier loops so the perfect-network paths
// pay one nil test per query and nothing else.
//
// Time is the step counter: one step per delivery processed. A forward
// delayed by d is released once d further deliveries have been processed,
// so traffic issued later overtakes it. That is why this is one FIFO of
// copies carrying their own (ttl, hops) and not the depth frontier: a
// delayed copy's hop count is no longer the depth of whatever frontier
// is current when it lands, and "append to the frontier d steps ahead"
// would both misdate it and reorder it against the oracle.

// fmsg is one query copy in flight on a faulty network.
type fmsg struct {
	to, from  int32
	ttl, hops int32
}

// timedMsg is a fault-delayed copy, released when the step counter
// reaches at; seq breaks ties in issue order.
type timedMsg struct {
	at, seq int
	m       fmsg
}

// delayHeap orders delayed copies by release step, then issue order.
type delayHeap []timedMsg

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(timedMsg)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runFaulted simulates one query to quiescence under e.Fault.
func (e *Engine) runFaulted(org int32, hb []uint64, walk bool, meta peer.Meta, spec peer.QuerySpec, st *peer.Stats) {
	f := e.Fault
	f.Tick()

	queue := append(e.fqueue[:0], fmsg{to: org, from: noUp, ttl: int32(spec.TTL)})
	delayed := e.fdelayed[:0]
	step, seq := 0, 0

	for head := 0; head < len(queue) || len(delayed) > 0; {
		if head == len(queue) {
			// Nothing in flight but delayed traffic: advance the clock
			// to the earliest release.
			step = delayed[0].at
		}
		for len(delayed) > 0 && delayed[0].at <= step {
			queue = append(queue, heap.Pop(&delayed).(timedMsg).m)
		}
		m := queue[head]
		head++
		step++
		u := m.to

		if u != org && f.Down(int(u)) {
			// Crashed receiver: the delivery evaporates. The origin is
			// exempt — a peer issuing a query is by definition up.
			fault.ReportDownDrop()
			continue
		}

		visited := e.seen[u] == e.epoch
		hosts := u != org && hb[uint(u)/64]>>(uint(u)%64)&1 != 0
		o := peer.EvalHostedSpec(hosts, walk, visited, int(m.ttl), st.Hits, spec)
		if o.Absorbed {
			continue
		}
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
			// The hit only counts as Found if it survives the reverse
			// path home.
			if e.propagateHitFaulted(meta, u, m.from, st) {
				if !st.Found || int(m.hops) < st.FirstHitHops {
					st.FirstHitHops = int(m.hops)
				}
				st.Found = true
			}
		}
		if o.Terminate || !o.Forward {
			continue
		}

		q := meta
		q.TTL = int(m.ttl)
		q.Hops = int(m.hops)
		nbrs := e.g.Neighbors(int(u))
		chosen := e.routeBuf[:0]
		if ap := e.appenders[u]; ap != nil {
			chosen = ap.RouteAppend(chosen, int(u), int(m.from), q, nbrs)
			e.routeBuf = chosen
		} else {
			chosen = e.routers[u].Route(int(u), int(m.from), q, nbrs)
		}
		for _, v := range chosen {
			st.QueryMessages++
			fate := f.OnSend(int(u), int(v))
			if fate.Drop {
				continue
			}
			nm := fmsg{to: v, from: u, ttl: m.ttl - 1, hops: m.hops + 1}
			copies := 1
			if fate.Duplicate || fate.Corrupt {
				// No wire GUIDs here; a corrupted GUID manifests as a
				// delivery that escapes duplicate suppression — same
				// observable as a duplicate.
				copies = 2
			}
			for c := 0; c < copies; c++ {
				if fate.Delay > 0 {
					heap.Push(&delayed, timedMsg{at: step + fate.Delay, seq: seq, m: nm})
					seq++
				} else {
					queue = append(queue, nm)
				}
			}
		}
	}
	// Keep the (possibly grown) buffers for the next query.
	e.fqueue, e.fdelayed = queue, delayed
}

// propagateHitFaulted is propagateHit on a faulty network: the hit
// crosses via -> node at each reverse hop, and a drop or a crashed relay
// loses it (duplication and delay are irrelevant to a boolean arrival);
// the node it was lost at does not observe it. It reports whether the hit
// reached the origin.
func (e *Engine) propagateHitFaulted(meta peer.Meta, u, upstreamAtU int32, st *peer.Stats) bool {
	f := e.Fault
	via, node := u, upstreamAtU
	for node != noUp {
		st.HitMessages++
		if int(node) != meta.Origin && f.Down(int(node)) {
			fault.ReportDownDrop()
			e.logTrail(u, node)
			return false
		}
		if f.OnSend(int(via), int(node)).Drop {
			e.logTrail(u, node)
			return false
		}
		if e.seen[node] != e.epoch {
			// Lost walker trail: stop attribution, the hit still counts
			// as delivered (the oracle's historical semantics).
			break
		}
		via, node = node, e.parent[node]
	}
	e.logTrail(u, node)
	return true
}
