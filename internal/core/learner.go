package core

import (
	"sync"
	"sync/atomic"

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
}

// DefaultLearnerConfig returns the learning constants every deployment
// runs, the simulator's routers and the live servent alike: a pair is a
// rule at decayed support 2, supports halve every 64 observations, a pair
// below 0.25 is forgotten.
func DefaultLearnerConfig() LearnerConfig {
	return LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 64, Floor: 0.25}
}

// DefaultTopK is how many consequents a covered query is forwarded to (the
// paper's "k neighbors with the highest support") in every deployment
// that does not sweep k: the simulator's routers by default and the live
// servent always.
const DefaultTopK = 2

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
}

// Learner owns a PairIndex it adds to and decays, the snapshot it serves
// from it, and the mutex that guards the index: every read or write of
// the index (Observe, Update, Publish, Restore) happens under that one
// mutex, so callers may use a Learner from any number of goroutines. The serve-side
// accessors (View, Version) take no lock. A learner always serves what it
// learned: every call that changes the index publishes what routing reads
// of it before it returns (see observeRun).
//
// Index, count table and served snapshot are all held by value, so a
// learner is one object of 96 bytes, and one word of it (the served
// snapshot's pointer, first) is all a routing decision reads. The served
// snapshot also carries the publish version: the next publish is its
// version plus one. A Learner must not be copied once initialised; an
// overlay keeps its learners in one slice and initialises each in place.
type Learner struct {
	cur atomic.Pointer[RuleSnapshot]
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
	l.cur.Store(emptySnapshot)
}

// CloneFrom makes l, a zero Learner nothing else is using, an
// independent copy of src as of now: src's index, its count table copied
// slot for slot, read under src's mutex. The config and the served
// snapshot, which carries the publish version, are immutable, so both
// are shared.
// From here on each learns, decays and publishes without the other.
func (l *Learner) CloneFrom(src *Learner) {
	src.mu.Lock()
	defer src.mu.Unlock()
	l.cfg, l.seen = src.cfg, src.seen
	l.idx = src.idx.clone()
	l.cur.Store(src.cur.Load())
}

// Observe folds a run of observations into the index, {src} -> {rep} for
// every rep of reps in order, decaying at the configured cadence, and
// publishes what routing reads once, at the end of the run. A run shares
// one antecedent: the hits one query brought back through a relay, whose
// upstream for that query is src, or the servent's single hit as a run of
// one. Supports are
// added and decayed pair by pair exactly as a call per rep would, so the
// index is the same either way; what a run saves is the lock, the
// publishes in between and the lookups of src's run.
//
// A run without a decay step raised pairs of src's run alone, so
// observeRun keeps the served snapshot when no raised pair moved a rule's
// rank or membership, and otherwise rebuilds that run alone. A run that
// crossed a decay step touched every pair and takes the full rebuild. The
// served supports may therefore trail the index, by up to DecayEvery
// observations when the learner decays; Publish returns exact ones.
func (l *Learner) Observe(src trace.HostID, reps []trace.HostID) {
	if len(reps) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	decayed := false
	var now float64
	for _, rep := range reps {
		now = l.idx.add(src, rep, 1)
		l.seen++
		if l.cfg.DecayEvery > 0 && l.seen%l.cfg.DecayEvery == 0 {
			l.idx.decay(l.cfg.Decay, l.cfg.Floor)
			decayed = true
		}
	}
	if decayed {
		l.publish()
		return
	}
	l.observeRun(src, reps, now)
}

// Update applies a structural edit to the index (anything other than one
// observation: grafting, seeding, resetting) and publishes the result.
// edit must not retain the index.
func (l *Learner) Update(edit func(*PairIndex)) *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	edit(&l.idx)
	return l.publish()
}

// Publish forces a full snapshot of the index's current rules: the rules
// and supports as of this moment, which is what a checkpoint persists.
func (l *Learner) Publish() *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.publish()
}

// Restore seeds the index from a persisted snapshot at discounted
// support and publishes; see restore.
func (l *Learner) Restore(s *RuleSnapshot, discount float64) *RuleSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.restore(s, discount)
}

// View returns the currently served snapshot: one atomic load, never nil.
func (l *Learner) View() *RuleSnapshot { return l.cur.Load() }

// Version returns the served snapshot's sequence number.
func (l *Learner) Version() uint64 { return l.cur.Load().version }
