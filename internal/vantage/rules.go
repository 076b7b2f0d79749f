package vantage

import (
	"slices"

	"arq/internal/core"
	"arq/internal/trace"
)

// This file is the serve plane of the live servent: the same
// learn-from-returning-hits association mining routing.Assoc runs in
// simulation, applied to real Gnutella connections. Returning query-hits
// teach the servent which neighbor connection answers queries arriving
// from each upstream connection ({upstream} -> {replier} pairs, §V of the
// paper applied at connection granularity); once a pair's decayed support
// crosses the activation threshold, queries from that upstream are
// forwarded to the core.DefaultTopK strongest learned connections instead
// of flooded. Both the learning constants and the forwarding decision,
// core.Forward, are the ones routing.Assoc runs; connection ids map into
// the learner's HostID space through trace.HostOf.
//
// Learning goes through one core.Learner on the query-hit path, and the
// mutex lives there. Serving never touches it: the forwarding decision
// reads the latest published core.RuleSnapshot — one atomic load — so
// concurrent connection goroutines route without contending with
// learning or with each other. Every observation publishes what filter
// reads, each run's order and membership, so the served rules never route
// behind the learned ones and a servent has no staleness fallback to take.
// A hit that moves no rule's rank or membership keeps the served snapshot,
// so its supports may trail the learner's by up to one decay period; the
// checkpoint publishes exact ones (writeCheckpoint).

// ruleServer owns the learn plane, one core.Learner held by value under
// core.DefaultLearnerConfig, and hands out lock-free routing decisions
// from its published snapshot.
type ruleServer struct {
	cfg     core.LearnerConfig
	learner core.Learner
	m       *instruments // the servent's: counts rule-routed and flooded queries
}

func newRuleServer(m *instruments) *ruleServer {
	r := &ruleServer{cfg: core.DefaultLearnerConfig(), m: m}
	r.learner.Init(&r.cfg)
	return r
}

// observe learns one routed query-hit: queries arriving on upstreamConn
// get answered via viaConn. Called on the query-hit path (any connection
// goroutine).
func (r *ruleServer) observe(upstreamConn, viaConn int) {
	if upstreamConn < 0 || upstreamConn == viaConn {
		return // our own search, or a degenerate loop
	}
	r.learner.Observe(trace.HostOf(upstreamConn), []trace.HostID{trace.HostOf(viaConn)})
}

// filter narrows a query's flood targets to the core.DefaultTopK strongest
// learned connections for its upstream that are among them (a rule naming
// a connection that has since closed is skipped, it does not use up a
// slot), reading the published snapshot lock-free. Falls back to the full
// target list when nothing is learned for this upstream or no learned
// consequent is currently connected.
func (r *ruleServer) filter(upstreamConn int, targets []*peerConn) []*peerConn {
	if upstreamConn < 0 || len(targets) <= 1 {
		return targets
	}
	out, why := core.Forward(r.learner.View(), trace.HostOf(upstreamConn), core.DefaultTopK,
		make([]*peerConn, 0, core.DefaultTopK), func(h trace.HostID) (*peerConn, bool) {
			id := trace.IDOf(h)
			i := slices.IndexFunc(targets, func(c *peerConn) bool { return c.id == id })
			if i < 0 {
				return nil, false
			}
			return targets[i], true
		})
	switch why {
	case core.RuleHit:
		r.m.RuleRouted.Inc()
		return out
	case core.NoRule, core.NoUsable:
		r.m.RuleFlood.Inc()
	}
	return targets
}
