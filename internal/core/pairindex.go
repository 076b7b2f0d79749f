package core

import (
	"time"

	"arq/internal/stream"
	"arq/internal/trace"
)

// This file is the incremental pair-count engine every rule-maintenance
// policy and the online association router are views over. One table of
// (source, replier) support counts — keyed by a packed uint64 instead of
// nested maps — absorbs per-block deltas (windowed policies), per-boundary
// exponential decay (the §VI incremental policy and routing.Assoc), and
// materializes the immutable RuleSet of the moment on demand.

// PairKey packs one rule's two halves into a 64-bit table key:
// antecedent<<32 | replier. The antecedent is an opaque 32-bit id to
// everything that holds keys (the index, the rule table, the snapshot
// codec): the forwarding neighbor's host id everywhere but under
// Sliding.UseInterest, where the policy assigns one id per (source,
// interest) pair it has in its window. One flat table keyed by PairKey
// costs one hash per update and has no inner maps to churn.
type PairKey uint64

// packPair builds the key for an (antecedent, replier) pair.
func packPair(src, rep trace.HostID) PairKey {
	return PairKey(uint64(src)<<32 | uint64(rep))
}

// Source returns the antecedent half of the key.
func (k PairKey) Source() trace.HostID { return trace.HostID(k >> 32) }

// Replier returns the consequent half of the key.
func (k PairKey) Replier() trace.HostID { return trace.HostID(k) }

// BlockDelta is one block's pair counts — what AddBlock contributed to the
// index. Retiring the delta (RemoveBlock) subtracts exactly that
// contribution, so windowed policies keep a ring of deltas instead of
// copies of the blocks themselves.
type BlockDelta map[PairKey]int32

// PairIndex is the incremental pair-count engine. It runs in one of two
// modes fixed at construction:
//
//   - windowed (NewPairIndex): counts are exact integers maintained by
//     AddBlock/RemoveBlock deltas; Snapshot materializes a RuleSet at a
//     prune threshold.
//   - decay (newDecayIndex): counts age by decay at boundaries and a pair
//     is an active rule while its count is at least the activation
//     threshold; covers answers "is src an antecedent" in O(1), so the
//     index is itself the rule set of the moment.
//
// Both count tables sit in the struct by value, so an index is one object
// and a Learner that holds its index by value adds none. A PairIndex
// is not safe for concurrent use.
type PairIndex struct {
	counts stream.CountTable[PairKey]

	// Decay-mode bookkeeping: threshold > 0 enables it. activeBySrc
	// tracks, per antecedent, how many consequents are at or above the
	// threshold, so covers is a single lookup instead of an inner-map
	// scan. active is the total active-rule count.
	threshold   float64
	activeBySrc stream.CountTable[trace.HostID]
	active      int
}

// NewPairIndex returns a windowed-mode engine (exact delta counting).
func NewPairIndex() *PairIndex {
	return &PairIndex{}
}

// newDecayIndex returns a decay-mode engine: pairs with count >= threshold
// are active rules, tracked incrementally. threshold must be positive.
func newDecayIndex(threshold float64) *PairIndex {
	if threshold <= 0 {
		panic("core: newDecayIndex requires threshold > 0")
	}
	return &PairIndex{threshold: threshold}
}

// track maintains the threshold-crossing bookkeeping for one entry's count
// transition.
func (x *PairIndex) track(k PairKey, old, now float64) {
	if x.threshold <= 0 {
		return
	}
	was, is := old >= x.threshold, now >= x.threshold
	if was == is {
		return
	}
	src := k.Source()
	if is {
		x.active++
		x.activeBySrc.Add(src, 1)
	} else {
		x.active--
		x.activeBySrc.Add(src, -1) // deletes the entry at zero
	}
}

// addPair records one (source, replier) observation and returns the
// pair's support before and after it: old >= threshold is whether the
// pair was a rule, read by the probe that adds.
func (x *PairIndex) addPair(src, rep trace.HostID) (old, now float64) {
	k := packPair(src, rep)
	old, now = x.counts.Add(k, 1)
	x.track(k, old, now)
	return old, now
}

// add adjusts the pair's count by w (decay-mode Set/Add callers use
// weighted support).
func (x *PairIndex) add(src, rep trace.HostID, w float64) {
	k := packPair(src, rep)
	old, now := x.counts.Add(k, w)
	x.track(k, old, now)
}

// Set overwrites the pair's count exactly.
func (x *PairIndex) Set(src, rep trace.HostID, v float64) {
	k := packPair(src, rep)
	old := x.counts.Set(k, v)
	x.track(k, old, v)
}

// Support returns the pair's current count (0 when untracked).
func (x *PairIndex) Support(src, rep trace.HostID) float64 {
	return x.counts.Get(packPair(src, rep))
}

// AddBlock folds one block into the index and returns the block's own
// delta, which the caller retains instead of the block; RemoveBlock with
// that delta subtracts the block's exact contribution later. The block
// itself is not retained — sources may reuse its buffer.
func (x *PairIndex) AddBlock(b trace.Block) BlockDelta {
	return x.addBlock(b, nil, nil)
}

// pairsPerDistinct sizes a fresh BlockDelta: a block of the paper's trace
// shape repeats each (source, replier) pair about nine times.
const pairsPerDistinct = 8

// addBlock is AddBlock counting into delta, a retired BlockDelta the
// caller no longer needs (nil allocates one), under the antecedent ante
// gives each pair (nil: its source). In windowed mode the block is counted
// once into the delta and the delta's distinct pairs are then folded into
// the index — one hash operation per pair plus two per distinct pair,
// against three per pair; integer adds are exact in float64, so the order
// of folding cannot show. A decay-mode index adds pair by pair: its counts
// are not integers, so the order of its adds can show.
func (x *PairIndex) addBlock(b trace.Block, delta BlockDelta, ante func(*trace.Pair) trace.HostID) BlockDelta {
	if delta == nil {
		delta = make(BlockDelta, len(b)/pairsPerDistinct)
	}
	clear(delta)
	switch {
	case x.threshold > 0:
		for _, p := range b {
			x.addPair(p.Source, p.Replier)
			delta[packPair(p.Source, p.Replier)]++
		}
		return delta
	case ante == nil:
		for _, p := range b {
			delta[packPair(p.Source, p.Replier)]++
		}
	default:
		for i := range b {
			delta[packPair(ante(&b[i]), b[i].Replier)]++
		}
	}
	for k, n := range delta {
		x.counts.Add(k, float64(n))
	}
	return delta
}

// RemoveBlock retires a previously added block by subtracting its delta.
func (x *PairIndex) RemoveBlock(d BlockDelta) {
	for k, n := range d {
		old, now := x.counts.Add(k, -float64(n))
		x.track(k, old, now)
	}
}

// decay multiplies every count by factor and drops entries that fall below
// floor — the per-boundary aging of the §VI incremental policy and of the
// online router: one linear sweep of the count table, which calls back
// only for the entries that cross the activation threshold (none in
// windowed mode, where the threshold is zero).
func (x *PairIndex) decay(factor, floor float64) {
	x.counts.Decay(factor, floor, x.threshold, x.track)
}

// reset drops all counts (retaining table capacity), so one index can be
// rebuilt per window without reallocating.
func (x *PairIndex) reset() {
	x.counts.Reset()
	if x.threshold > 0 {
		x.activeBySrc.Reset()
		x.active = 0
	}
}

// covers reports, in decay mode, whether some consequent for src is at
// or above the activation threshold.
func (x *PairIndex) covers(src trace.HostID) bool {
	return x.threshold > 0 && x.activeBySrc.Get(src) > 0
}

// Range calls f for every tracked pair until f returns false. Iteration
// order is unspecified; f must not mutate the index.
func (x *PairIndex) Range(f func(k PairKey, count float64) bool) {
	x.counts.Range(f)
}

// snapshot materializes the current counts as an immutable RuleSet:
// pairs with count >= prune (below 1 is 1) whose confidence, the count
// over the total of every pair that shares its antecedent, is at least
// minConf (§VI: "reducing the size of rule sets while retaining high
// coverage and success"; 0 keeps all). Without instrumentation.
func (x *PairIndex) snapshot(prune int, minConf float64) *RuleSet {
	prune = max(prune, 1)
	keep := prune
	if minConf > 0 {
		keep = 1 // an antecedent's total needs its pruned pairs too
	}
	var t rules
	x.counts.Range(func(k PairKey, v float64) bool {
		if c := int(v); c >= keep {
			t = append(t, RuleEntry{Key: k, Support: float64(c)})
		}
		return true
	})
	sortRules(t)
	if minConf > 0 {
		t = pruneRuns(t, float64(prune), minConf)
	}
	return newRuleSet(t)
}

// pruneRuns filters t, every pair of a window in canonical order, down to
// its rules in place: a run is one antecedent's pairs, so its supports sum
// to the antecedent's total.
func pruneRuns(t rules, prune, minConf float64) rules {
	out := t[:0]
	for lo, hi := 0, 0; lo < len(t); lo = hi {
		total := 0.0
		for hi = lo; hi < len(t) && t[hi].Key.Source() == t[lo].Key.Source(); hi++ {
			total += t[hi].Support
		}
		for _, e := range t[lo:hi] {
			if e.Support >= prune && e.Support/total >= minConf {
				out = append(out, e)
			}
		}
	}
	return out
}

// observeRegen records one rule-set build in the obsv instruments.
func observeRegen(start time.Time, rs *RuleSet) *RuleSet {
	mRegens.Inc()
	mRegenNs.Observe(time.Since(start).Nanoseconds())
	mRegenRules.Observe(int64(rs.Len()))
	return rs
}

// Snapshot materializes the current counts as an immutable RuleSet,
// keeping pairs with count >= prune (counts truncate toward zero in decay
// mode). The build is recorded as a rule-set regeneration in the obsv
// instruments; for delta-maintained windows this is the whole recurring
// cost — counting already happened incrementally.
func (x *PairIndex) Snapshot(prune int) *RuleSet {
	return observeRegen(time.Now(), x.snapshot(prune, 0))
}

// rebuild resets the index to exactly one block and snapshots it — the
// GENERATE-RULESET(b) of the single-block policies, instrumented as one
// regeneration. Reusing an index across Rebuild calls reuses its storage.
func (x *PairIndex) rebuild(block trace.Block, prune int) *RuleSet {
	start := time.Now()
	x.reset()
	for _, p := range block {
		k := packPair(p.Source, p.Replier)
		old, now := x.counts.Add(k, 1)
		x.track(k, old, now)
	}
	return observeRegen(start, x.snapshot(prune, 0))
}
