package vantage

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arq/internal/core"
	"arq/internal/obsv"
	"arq/internal/stream"
)

// This file is the serve plane of the live servent: the same
// learn-from-returning-hits association mining routing.Assoc runs in
// simulation, applied to real Gnutella connections. Returning query-hits
// teach the servent which neighbor connection answers queries arriving
// from each upstream connection ({upstream} -> {replier} pairs, §V of the
// paper applied at connection granularity); once a pair's decayed support
// crosses the activation threshold, queries from that upstream are
// forwarded to the learned top-k connections instead of flooded.
//
// Learning goes through one core.Learner (on the query-hit path, or on
// the single drainer goroutine behind a bounded intake), and the mutex
// lives there. Serving never touches it: the forwarding decision reads
// the latest published core.RuleSnapshot — one atomic load — so
// concurrent connection goroutines route without contending with
// learning or with each other.

// Rule-serving instruments: queries forwarded on learned rules vs flooded
// (no coverage, or no learned consequent currently connected).
var (
	mRuleRouted = obsv.GetCounter("vantage.rule_routed")
	mRuleFlood  = obsv.GetCounter("vantage.rule_flood")
	// mLearnDropped counts observations shed by the bounded learn-plane
	// intake (RuleConfig.QueueCap) under sustained overload.
	mLearnDropped = obsv.GetCounter("vantage.learn.dropped")
	// mRuleStaleFlood counts queries flooded because the served snapshot
	// was degraded: staler than the configured bound, or published
	// before the learn plane last shed observations — rules mined from
	// an incomplete stream are not trusted to narrow the forward set.
	mRuleStaleFlood = obsv.GetCounter("vantage.rule_stale_flood")
)

// RuleConfig parameterizes the servent's association rule learner. It
// mirrors routing.AssocConfig with connection ids as the universe.
type RuleConfig struct {
	// TopK is the number of learned connections to forward to.
	TopK int
	// Threshold is the decayed support at which a pair becomes a rule.
	Threshold float64
	// Decay and DecayEvery age supports: every DecayEvery observed hits,
	// supports are multiplied by Decay.
	Decay      float64
	DecayEvery int
	// Floor evicts pairs whose decayed support falls below it; must stay
	// below Threshold. Decay and Floor outside their ranges are repaired
	// by the learner (core.LearnerConfig).
	Floor float64
	// Publish selects the snapshot publication policy. The default
	// (PublishSync) publishes on every observed hit; a live servent with
	// many connections may prefer PublishOnChange.
	Publish core.PublishPolicy
	// PublishEvery is the epoch length for core.PublishEpoch.
	PublishEvery int
	// QueueCap, when positive, bounds the learn plane's observation
	// intake: routed hits are pushed onto a fixed-capacity drop-oldest
	// queue drained by a background learner goroutine instead of being
	// folded in on the query-hit path. Under sustained overload the
	// oldest queued observations are shed (counted by
	// vantage.learn.dropped) so learning lags but memory and hit-path
	// latency stay bounded. 0 learns synchronously on the hit path.
	QueueCap int
	// StaleObs, when positive, degrades rule serving to flooding once
	// that many observations have been absorbed since the last publish
	// (see routing.AssocConfig.StaleObs; counted by
	// vantage.rule_stale_flood). Independent of the bounds, a snapshot
	// published before the learn plane last shed observations is always
	// treated as degraded: shedding means the mined stream is
	// incomplete, so flooding is safer than narrowed forwarding until a
	// fresh publish.
	StaleObs int
	// StaleAge is the elapsed-time staleness bound: a snapshot published
	// longer ago than this, by the monotonic clock (a stepped wall clock
	// does not move it), degrades the same way. 0 disables.
	StaleAge time.Duration
}

// DefaultRuleConfig returns the defaults used by the loopback tests:
// synchronous publication and the simulator's learning constants.
func DefaultRuleConfig() RuleConfig {
	return RuleConfig{TopK: 2, Threshold: 2, Decay: 0.5, DecayEvery: 64, Floor: 0.25}
}

// ruleObs is one queued learn-plane observation: a hit for a query from
// upstreamConn was routed back via viaConn.
type ruleObs struct{ up, via int }

// ruleServer owns the learn plane (one core.Learner, held by value and
// optionally fed through a bounded drop-oldest queue) and hands out
// lock-free routing decisions from the published snapshot.
type ruleServer struct {
	cfg     RuleConfig
	learner core.Learner

	// Bounded intake (cfg.QueueCap > 0): observe pushes, one background
	// goroutine drains. nil means learn on the hit path.
	queue *stream.DropRing[ruleObs]
	wg    sync.WaitGroup

	// Degradation bookkeeping (cfg.StaleObs/StaleAge). drops mirrors
	// this server's share of vantage.learn.dropped; lastVer/dropsAtVer
	// remember the drop count when the served version last changed, so
	// degraded() can tell "shed since the last publish" apart from old
	// history. Races between the three are benign: at worst a query or
	// two floods that could have been rule-routed.
	drops      atomic.Int64
	lastVer    atomic.Uint64
	dropsAtVer atomic.Int64
}

func newRuleServer(cfg RuleConfig) *ruleServer {
	if cfg.TopK <= 0 {
		cfg.TopK = 2
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	r := &ruleServer{cfg: cfg}
	r.learner.Init(&core.LearnerConfig{
		Threshold:  cfg.Threshold,
		Decay:      cfg.Decay,
		DecayEvery: cfg.DecayEvery,
		Floor:      cfg.Floor,
		Publish: core.PublisherConfig{
			Policy:   cfg.Publish,
			Epoch:    cfg.PublishEvery,
			StaleObs: int64(cfg.StaleObs),
			StaleAge: cfg.StaleAge,
		},
	})
	if cfg.QueueCap > 0 {
		r.queue = stream.NewDropRing[ruleObs](cfg.QueueCap)
	}
	return r
}

// start launches the background goroutine that drains the bounded intake
// (no-op without one).
func (r *ruleServer) start() {
	if r.queue == nil {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			obs, ok := r.queue.Pop()
			if !ok {
				return
			}
			r.learn(obs.up, obs.via)
		}
	}()
}

// close drains and stops the learn plane: queued observations are
// absorbed before the drainer exits. Observations arriving after close
// count as dropped (the closed ring's Push contract).
func (r *ruleServer) close() {
	if r.queue == nil {
		return
	}
	r.queue.Close()
	r.wg.Wait()
}

// observe takes one routed query-hit observation: queries arriving on
// upstreamConn get answered via viaConn. Called on the query-hit path
// (any connection goroutine). With a bounded intake the observation is
// queued (shedding the oldest and bumping vantage.learn.dropped when
// full); otherwise it is learned synchronously.
func (r *ruleServer) observe(upstreamConn, viaConn int) {
	if upstreamConn < 0 || upstreamConn == viaConn {
		return // our own search, or a degenerate loop
	}
	if r.queue != nil {
		if r.queue.Push(ruleObs{upstreamConn, viaConn}) {
			mLearnDropped.Inc()
			r.drops.Add(1)
		}
		return
	}
	r.learn(upstreamConn, viaConn)
}

// learn folds one observation into the learner, bypassing the queue.
func (r *ruleServer) learn(upstreamConn, viaConn int) {
	r.learner.Observe(connHost(upstreamConn), connHost(viaConn))
}

// degraded reports whether the served snapshot should not be trusted to
// narrow forwarding: the configured staleness bound is breached, or the
// learn plane shed observations since the current version was published.
// Always false when neither staleness bound is configured.
func (r *ruleServer) degraded() bool {
	if r.cfg.StaleObs <= 0 && r.cfg.StaleAge <= 0 {
		return false
	}
	if ver := r.learner.Version(); ver != r.lastVer.Load() {
		r.dropsAtVer.Store(r.drops.Load())
		r.lastVer.Store(ver)
	}
	if r.drops.Load() != r.dropsAtVer.Load() {
		return true
	}
	return r.learner.Stale()
}

// filter narrows a query's flood targets to the k strongest learned
// connections for its upstream that are among them (a rule naming a
// connection that has since closed is skipped, it does not use up a
// slot), reading the published snapshot lock-free. Falls back
// to the full target list when nothing is learned for this upstream, no
// learned consequent is currently connected, or the snapshot is degraded
// (stale or mined from a shed-lossy stream — see RuleConfig.StaleObs).
func (r *ruleServer) filter(upstreamConn int, targets []*peerConn) []*peerConn {
	if upstreamConn < 0 || len(targets) <= 1 {
		return targets
	}
	if r.degraded() {
		mRuleStaleFlood.Inc()
		return targets
	}
	out := make([]*peerConn, 0, r.cfg.TopK)
	for _, e := range r.learner.View().Run(connHost(upstreamConn)) {
		want := int(e.Key.Replier()) - 1 // invert connHost
		i := slices.IndexFunc(targets, func(c *peerConn) bool { return c.id == want })
		if i < 0 {
			continue
		}
		out = append(out, targets[i])
		if len(out) == r.cfg.TopK {
			break
		}
	}
	if len(out) == 0 {
		mRuleFlood.Inc()
		return targets
	}
	mRuleRouted.Inc()
	return out
}
