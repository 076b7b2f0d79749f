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

// upsertRule returns rules with k's entry brought to support now: dropped
// when now is below minSupport, otherwise placed at its canonical position
// within its antecedent's run. The input is never modified; it is returned
// as is when k is absent and stays absent.
func upsertRule(rules []RuleEntry, k PairKey, now, minSupport float64) []RuleEntry {
	lo, hi := runBounds(rules, k.Source())
	at := lo
	for at < hi && rules[at].Key != k {
		at++
	}
	size, pending := len(rules), now >= minSupport
	if at == hi && !pending {
		return rules
	}
	if at < hi {
		size--
	}
	if pending {
		size++
	}
	e := RuleEntry{Key: k, Support: now}
	out := append(make([]RuleEntry, 0, size), rules[:lo]...)
	for i := lo; i < hi; i++ {
		if i == at {
			continue
		}
		if pending && ruleLess(e, rules[i]) {
			out, pending = append(out, e), false
		}
		out = append(out, rules[i])
	}
	if pending {
		out = append(out, e)
	}
	return append(out, rules[hi:]...)
}

// PublishPolicy selects when a Publisher turns accumulated observations
// into a fresh snapshot.
type PublishPolicy int

const (
	// PublishSync publishes after every observation. Readers always see
	// the newest rule state, so a single-goroutine deployment (the
	// sequential peer.Engine) reproduces direct-index routing decisions
	// exactly. Each observation pays a publish: a single-pair upsert when
	// the learner reports the pair it moved (ObservePair), a rebuild
	// otherwise.
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

// observePair is observe for an observation that did nothing to the
// index but move pair k to support now (no decay, no reset, no other
// pair). When the policy publishes and this is the only
// observation since the served snapshot was built, the next snapshot is
// that one with k upserted — O(active rules), no walk of the index, no
// sort — and shares its storage outright when k stays below MinSupport.
// Otherwise the served snapshot is missing more than this pair (or was
// never built from the index at all) and the publish is a full rebuild.
// Either way version, lag and the instruments advance
// exactly as under observe. Every index change must reach the publisher
// through observe, observePair or publish for this to hold.
func (p *Publisher) observePair(idx *PairIndex, k PairKey, now float64) {
	total := p.obsSince.Add(1)
	if !p.due(total) {
		gPublishLag.Set(total)
		return
	}
	if base := p.cur.Load(); total == 1 && base.version > 0 {
		p.swap(upsertRule(base.rules, k, now, p.cfg.MinSupport))
	} else {
		p.publish(idx)
	}
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
