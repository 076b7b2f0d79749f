package core

import (
	"sort"
	"sync/atomic"

	"arq/internal/obsv"
)

// This file is the serve plane of the rule lifecycle: a single-writer
// miner owns a PairIndex (the write plane) and a Publisher materializes
// its state into immutable, versioned RuleSnapshots exposed through an
// atomic.Pointer — lock-free for any number of concurrent readers.
// Routing decisions vastly outnumber rule updates in deployment (the
// read-dominant assumption of the paper's online router and of the
// related queries-routing simulators), so the read path must never
// contend with the write path: readers only ever load a pointer, and a
// publish is one pointer swap.

// Observability instruments for snapshot publication, aggregated across
// every publisher in the process (one per deployed node). The counter
// accumulates; the gauges are last-writer-wins — a cheap liveness signal
// (is anything publishing, how stale, how big), not a per-node breakdown.
var (
	mPublishes   = obsv.GetCounter("core.publish.count")
	gPublishVer  = obsv.GetGauge("core.publish.version")
	gPublishSize = obsv.GetGauge("core.publish.rules")
	gPublishLag  = obsv.GetGauge("core.publish.lag_obs")
)

// RuleSnapshot is one published generation of a node's routing knowledge:
// the rule table (Len, Run, Support, Consequents, Range) of the pairs at
// or above the activation threshold at publish time, with their decayed
// supports. A snapshot is immutable once published. Its readers ask for
// an antecedent's whole run, never "is this pair a rule" a block at a
// time, so unlike a RuleSet it carries no membership sets.
type RuleSnapshot struct {
	rules
	version uint64
}

// emptySnapshot is what a Publisher serves before its first publish.
var emptySnapshot = &RuleSnapshot{}

// Version returns the snapshot's publication sequence number (0 for the
// pre-first-publish empty snapshot).
func (s *RuleSnapshot) Version() uint64 { return s.version }

// byKey returns a copy of the rules in ascending PairKey order: the
// codec's record order and the order Restore seeds a learn plane in.
func (s *RuleSnapshot) byKey() []RuleEntry {
	out := make([]RuleEntry, len(s.rules))
	copy(out, s.rules)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// rerun returns rules with the run rules[lo:hi], k's antecedent run,
// rebuilt from idx: every entry's support re-read, k appended at support
// now when the run lacks it, and the run sorted again. The input is never
// modified.
func rerun(rules []RuleEntry, lo, hi int, idx *PairIndex, k PairKey, now float64, absent bool) []RuleEntry {
	size := len(rules)
	if absent {
		size++
	}
	out := append(make([]RuleEntry, 0, size), rules[:lo]...)
	for _, e := range rules[lo:hi] {
		out = append(out, RuleEntry{Key: e.Key, Support: idx.counts.Get(e.Key)})
	}
	if absent {
		out = append(out, RuleEntry{Key: k, Support: now})
	}
	sortRules(out[lo:])
	return append(out, rules[hi:]...)
}

// PublishPolicy selects when a Publisher turns accumulated observations
// into a fresh snapshot.
type PublishPolicy int

const (
	// PublishSync publishes after every observation what a routing
	// decision can see. Readers always see the newest rule order and
	// membership, so a single-goroutine deployment (the sequential
	// oracle.Engine) reproduces direct-index routing decisions exactly. An
	// observation that moves no rule's rank or membership keeps the
	// served snapshot (see observePair); one that does swaps in a snapshot
	// with its run rebuilt, and a decay step the full rebuild. Served
	// supports are exact as of their run's last rebuild, at most one decay
	// period old under a decaying Learner; Learner.Publish gives exact
	// ones.
	PublishSync PublishPolicy = iota
	// PublishEpoch publishes every Epoch observations regardless of what
	// changed, bounding staleness by a fixed observation budget.
	PublishEpoch
)

// PublisherConfig parameterizes a Publisher.
type PublisherConfig struct {
	// Policy selects the publication trigger (default PublishSync).
	Policy PublishPolicy
	// Epoch is the observations-per-publish budget for PublishEpoch
	// (default 64; ignored by PublishSync).
	Epoch int
	// MinSupport is the support a pair needs to enter a snapshot
	// (required; a Learner defaults it to its Threshold).
	MinSupport float64
	// StaleObs bounds how far the served snapshot may fall behind before
	// Stale reports it: that many observations absorbed since the last
	// publish. Zero disables the bound.
	StaleObs int64
}

// Publisher turns a learn-plane index into a lock-free stream of
// RuleSnapshots. view, lag and stale may be called from any number of
// goroutines concurrently and never block. Everything else (observe,
// observePair, publish, restore) reads the index and belongs to
// the index's single writer; a Learner is that writer and holds the
// mutex for it. A Publisher keeps no pointer to its index: the writer
// hands the same one to every call that reads it, so a Learner holds
// index and publisher side by side, by value, and neither points at the
// other. The served snapshot comes first because every routing decision
// loads it.
type Publisher struct {
	cur      atomic.Pointer[RuleSnapshot]
	obsSince atomic.Int64 // read by lag and stale
	cfg      *PublisherConfig

	version uint64
}

// init makes the zero Publisher serve under cfg, which it keeps and does
// not copy.
func (p *Publisher) init(cfg *PublisherConfig) {
	if cfg.MinSupport <= 0 {
		panic("core: a Publisher requires MinSupport > 0")
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 64
	}
	p.cfg = cfg
	p.cur.Store(emptySnapshot)
}

// view returns the current published snapshot: one atomic pointer load,
// safe from any goroutine, never nil.
func (p *Publisher) view() *RuleSnapshot {
	return p.cur.Load()
}

// lag returns the number of observations the learn plane has absorbed
// since the last publish — the serve plane's staleness in observation
// units.
func (p *Publisher) lag() int64 {
	return p.obsSince.Load()
}

// stale reports whether the served snapshot has fallen behind the learn
// plane by the configured bound: StaleObs observations absorbed since the
// last publish. With no bound set nothing is ever stale. The
// pre-first-publish empty snapshot is never stale — nothing has been
// learned worth waiting for, and callers already treat an empty snapshot
// as "no rules". routing.Assoc polls this to decide when decayed rules
// should yield to flooding.
func (p *Publisher) stale() bool {
	maxLag := p.cfg.StaleObs
	return maxLag > 0 && p.obsSince.Load() >= maxLag && p.cur.Load().version > 0
}

// observe records that idx absorbed one observation and publishes if the
// policy calls for it.
func (p *Publisher) observe(idx *PairIndex) {
	if total := p.obsSince.Add(1); p.due(total) {
		p.publish(idx)
	} else {
		gPublishLag.Set(total)
	}
}

// observePair is observe for an observation that did nothing to the index
// but raise pair k to support now (no decay, no reset, no other pair).
// Routing reads a snapshot's run order and membership, never its supports.
// So when the policy publishes and the served snapshot was built from the
// index one observation ago, that snapshot stays served, at its version
// and with lag 0, if k changes neither:
//   - k is absent and still below MinSupport, or
//   - k is present and still ranks below its run predecessor, read at the
//     predecessor's index support.
//
// Otherwise the next snapshot is the served one with k's run alone rebuilt
// from the index (rerun): no walk of the index, one allocation for the
// rules. This holds because between full publishes only observePair
// touches the index, by raising one key, so the served order is always
// the rebuild's. The served supports are as of each run's last rebuild;
// a reader that persists them takes Learner.Publish. If the served
// snapshot is missing more than this pair (or was never built from the
// index at all), the publish is a full rebuild. Every index change must
// reach the publisher through observe, observePair or publish.
func (p *Publisher) observePair(idx *PairIndex, k PairKey, now float64) {
	// Only the writer stores obsSince, so a load and a store replace the
	// add, and a kept snapshot writes nothing at all.
	total := p.obsSince.Load() + 1
	if !p.due(total) {
		p.obsSince.Store(total)
		gPublishLag.Set(total)
		return
	}
	base := p.cur.Load()
	if total > 1 || base.version == 0 {
		p.publish(idx)
		return
	}
	lo, hi := runBounds(base.rules, k.Source())
	at := lo
	for at < hi && base.rules[at].Key != k {
		at++
	}
	absent := at == hi
	switch {
	case absent:
		if now < p.cfg.MinSupport {
			return // not a rule, and still not one
		}
	case at == lo:
		return // heads its run, and still does
	default:
		pred := base.rules[at-1].Key
		if ruleCmp(RuleEntry{Key: pred, Support: idx.counts.Get(pred)}, RuleEntry{Key: k, Support: now}) < 0 {
			return // still behind its run predecessor
		}
	}
	p.swap(rerun(base.rules, lo, hi, idx, k, now, absent))
}

// due applies the publication policy to the observations absorbed since
// the last publish.
func (p *Publisher) due(total int64) bool {
	return p.cfg.Policy == PublishSync || total >= int64(p.cfg.Epoch)
}

// publish materializes idx's current rules — its pairs at or above
// MinSupport, in canonical snapshot order — as a new immutable snapshot
// and swaps it in, returning the new snapshot.
func (p *Publisher) publish(idx *PairIndex) *RuleSnapshot {
	var rules []RuleEntry
	idx.Range(func(k PairKey, v float64) bool {
		if v >= p.cfg.MinSupport {
			rules = append(rules, RuleEntry{Key: k, Support: v})
		}
		return true
	})
	sortRules(rules)
	return p.swap(rules)
}

// swap publishes rules as the next version.
func (p *Publisher) swap(rules []RuleEntry) *RuleSnapshot {
	p.version++
	s := &RuleSnapshot{rules: rules, version: p.version}
	p.cur.Store(s)
	p.obsSince.Store(0)
	mPublishes.Inc()
	gPublishVer.Set(int64(s.version))
	gPublishSize.Set(int64(len(rules)))
	gPublishLag.Set(0)
	return s
}
