package core

import (
	"sync"

	"arq/internal/trace"
)

// This file is the learn plane of the rule lifecycle — the paper's §VI
// loop as one type: count {upstream} -> {replier}, decay every N hits,
// publish what is above threshold. Both deployments of the online miner
// (routing.Assoc per simulated node, the vantage rule server per live
// servent) hold one Learner and nothing else that can write.

// LearnerConfig parameterizes a Learner.
type LearnerConfig struct {
	// Threshold is the decayed support at which a pair becomes a rule
	// (must be positive).
	Threshold float64
	// Decay multiplies every support after each DecayEvery observations;
	// pairs that fall below Floor are evicted. DecayEvery <= 0 never
	// decays. Decay outside (0, 1] is repaired to 0.5 (a zero factor would
	// forget everything at the first boundary), Floor outside
	// (0, Threshold) to 0.25, or to Threshold/8 under a threshold that
	// small.
	Decay      float64
	DecayEvery int
	Floor      float64
	// Publish selects when observations surface in the served snapshot
	// and when that snapshot counts as stale. Its MinSupport defaults to
	// Threshold.
	Publish PublisherConfig
}

// DefaultLearnerConfig returns the learning constants every deployment
// runs, the simulator's routers and the live servent alike: a pair is a
// rule at decayed support 2, supports halve every 64 observations, a pair
// below 0.25 is forgotten, and every observation publishes what routing
// reads (PublishSync).
func DefaultLearnerConfig() LearnerConfig {
	return LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 64, Floor: 0.25}
}

// repair validates c and fills its defaults in place; a second call
// changes nothing.
func (c *LearnerConfig) repair() {
	if c.Threshold <= 0 {
		panic("core: a Learner requires Threshold > 0")
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.5
	}
	if c.Floor <= 0 || c.Floor >= c.Threshold {
		c.Floor = 0.25
		if c.Floor >= c.Threshold {
			c.Floor = c.Threshold / 8
		}
	}
	if c.Publish.MinSupport <= 0 {
		c.Publish.MinSupport = c.Threshold
	}
}

// Learner owns a decay-mode PairIndex, the Publisher over it, and the
// mutex that guards both: every read or write of the index (Observe,
// Update, Publish, Restore) happens under that one mutex, so callers may
// use a Learner from any number of goroutines. The serve-side accessors
// (View, Version, Lag, Stale) take no lock.
//
// Index, count tables and publisher are all held by value, so a learner
// is one object, and one cache line of it (the publisher's served
// snapshot, first) is all a routing decision reads. A Learner must not be
// copied once initialised; an overlay keeps its learners in one slice and
// initialises each in place.
type Learner struct {
	pub Publisher
	cfg *LearnerConfig

	mu   sync.Mutex
	seen int
	idx  PairIndex
}

// Init makes l, the zero Learner, serve the empty version-0 snapshot
// under cfg. The config is kept, not copied, so that a slab of learners
// shares one: Init repairs it in place (see LearnerConfig) and it must not
// change afterwards.
func (l *Learner) Init(cfg *LearnerConfig) {
	cfg.repair()
	l.cfg = cfg
	l.idx.threshold = cfg.Threshold
	l.pub.init(&cfg.Publish)
}

// Observe folds one {src} -> {rep} observation into the index, decaying
// at the configured cadence, and lets the publisher apply its policy.
// Between decay steps the observation raised exactly one pair, so the
// publisher is told which: it keeps the served snapshot when the pair
// moves no rule's rank or membership, and otherwise rebuilds that pair's
// run alone. A decay step touches every pair and takes the full rebuild.
// The served supports may therefore trail the index, by up to DecayEvery
// observations when the learner decays; Publish returns exact ones.
func (l *Learner) Observe(src, rep trace.HostID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, now := l.idx.addPair(src, rep)
	l.seen++
	if l.cfg.DecayEvery > 0 && l.seen%l.cfg.DecayEvery == 0 {
		l.idx.decay(l.cfg.Decay, l.cfg.Floor)
		l.pub.observe(&l.idx)
		return
	}
	l.pub.observePair(&l.idx, packPair(src, rep), now)
}

// Update applies a structural edit to the index (anything other than one
// observation: grafting, seeding, resetting) and publishes the result
// unconditionally. edit must not retain the index.
func (l *Learner) Update(edit func(*PairIndex)) *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	edit(&l.idx)
	return l.pub.publish(&l.idx)
}

// Publish forces a snapshot of the index's current rules regardless of
// the publication policy: the rules and supports as of this moment, which
// is what a checkpoint persists.
func (l *Learner) Publish() *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pub.publish(&l.idx)
}

// Restore seeds the index from a persisted snapshot at discounted
// support and publishes; see Publisher.restore.
func (l *Learner) Restore(s *RuleSnapshot, discount float64) *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pub.restore(&l.idx, s, discount)
}

// View returns the currently served snapshot: one atomic load, never nil.
func (l *Learner) View() *RuleSnapshot { return l.pub.view() }

// Version returns the served snapshot's sequence number.
func (l *Learner) Version() uint64 { return l.pub.view().version }

// Lag returns the observations absorbed since the last publish.
func (l *Learner) Lag() int64 { return l.pub.lag() }

// Stale reports whether the served snapshot breaches the staleness bound
// of LearnerConfig.Publish; see Publisher.stale.
func (l *Learner) Stale() bool { return l.pub.stale() }
