package core

import (
	"sync"

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
// copies of the blocks themselves. The counts are a flat count table.
type BlockDelta struct {
	counts stream.CountTable[PairKey]
}

// deltas recycles the deltas RemoveBlock retires, so a window in its
// steady state counts each block into the arrays of the one it just
// retired and allocates nothing.
var deltas = sync.Pool{New: func() any { return new(BlockDelta) }}

// PairIndex is the incremental pair-count engine. It runs in one of two
// modes fixed at construction:
//
//   - windowed (NewPairIndex): counts are exact integers maintained by
//     AddBlock/RemoveBlock deltas; Snapshot materializes a RuleSet at a
//     prune threshold.
//   - decay (newDecayIndex): counts age by decay at boundaries and a pair
//     is an active rule while its count is at least the activation
//     threshold; "is src an antecedent" is one lookup (activeBySrc), so the
//     index is itself the rule set of the moment. Its pairs come one at a
//     time (addPair, add, Set): block deltas are for windowed indexes
//     only.
//
// Both count tables sit in the struct by value, so an index is one object
// and a Learner that holds its index by value adds none. A PairIndex
// is not safe for concurrent use.
type PairIndex struct {
	counts stream.CountTable[PairKey]

	// Decay-mode bookkeeping: threshold > 0 enables it. activeBySrc
	// tracks, per antecedent, how many consequents are at or above the
	// threshold, so "is src covered" is a single lookup instead of an
	// inner-map scan. active is the total active-rule count.
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
// transition. It is small enough to inline, so the transitions that cross
// nothing, nearly all of them, cost no call.
func (x *PairIndex) track(k PairKey, old, now float64) {
	if th := x.threshold; (now >= th) != (old >= th) && th > 0 {
		x.cross(k, now)
	}
}

// cross counts k's antecedent into the active rules when its count is
// now at or above the threshold, and out of them otherwise.
func (x *PairIndex) cross(k PairKey, now float64) {
	src := k.Source()
	if now >= x.threshold {
		x.active++
		x.activeBySrc.Add(src, 1)
	} else {
		x.active--
		x.activeBySrc.Add(src, -1) // deletes the entry at zero
	}
}

// addPair records one (source, replier) observation and returns the
// pair's support before and after it.
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

// AddBlock folds one block into a windowed index and returns the block's
// own delta, which the caller retains instead of the block; RemoveBlock
// with that delta subtracts the block's exact contribution later. The
// block itself is not retained — sources may reuse its buffer.
func (x *PairIndex) AddBlock(b trace.Block) *BlockDelta {
	return x.addBlock(b, nil)
}

// addBlock is AddBlock under the antecedent id antes interns for each pair
// (nil: its source). The block is counted once into the delta and the
// delta's distinct pairs are then folded into the index — one hash
// operation per pair plus two per distinct pair, against three per pair;
// integer adds are exact in float64, so the order of folding cannot show.
func (x *PairIndex) addBlock(b trace.Block, antes *anteIDs) *BlockDelta {
	delta := deltas.Get().(*BlockDelta)
	d := &delta.counts
	d.Reset()
	for i := range b {
		src := b[i].Source
		if antes != nil {
			src = antes.intern(&b[i])
		}
		d.Add(packPair(src, b[i].Replier), 1)
	}
	d.Range(func(k PairKey, n float64) bool {
		x.counts.Add(k, n)
		return true
	})
	return delta
}

// RemoveBlock retires a previously added block by subtracting its delta.
// The delta goes back for a later AddBlock to count into, so the caller
// must not read it afterwards.
func (x *PairIndex) RemoveBlock(d *BlockDelta) {
	d.counts.Range(func(k PairKey, n float64) bool {
		x.counts.Add(k, -n)
		return true
	})
	deltas.Put(d)
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

// Range calls f for every tracked pair until f returns false. Iteration
// order is unspecified; f must not mutate the index.
func (x *PairIndex) Range(f func(k PairKey, count float64) bool) {
	x.counts.Range(f)
}

// snapshot materializes the current counts as an immutable RuleSet:
// pairs with count >= prune (below 1 is 1) whose confidence, the count
// over the total of every pair that shares its antecedent, is at least
// minConf (§VI: "reducing the size of rule sets while retaining high
// coverage and success"; 0 keeps all).
func (x *PairIndex) snapshot(prune int, minConf float64) *RuleSet {
	prune = max(prune, 1)
	keep := prune
	if minConf > 0 {
		keep = 1 // an antecedent's total needs its pruned pairs too
	}
	buf := ruleScratch.Get().(*rules)
	t := (*buf)[:0]
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
	out := make(rules, len(t))
	copy(out, t)
	*buf = t
	ruleScratch.Put(buf)
	return newRuleSet(out)
}

// ruleScratch recycles the slice snapshot gathers and sorts a window's
// rules in, so the table it keeps is one allocation of its exact size
// rather than one per doubling of an append.
var ruleScratch = sync.Pool{New: func() any { return new(rules) }}

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

// Snapshot materializes the current counts as an immutable RuleSet,
// keeping pairs with count >= prune (counts truncate toward zero in decay
// mode). For delta-maintained windows this is the whole recurring cost of
// a regeneration: counting already happened incrementally.
func (x *PairIndex) Snapshot(prune int) *RuleSet {
	return x.snapshot(prune, 0)
}

// rebuild resets a windowed index to exactly one block and snapshots it —
// the GENERATE-RULESET(b) of the single-block policies. Reusing an index
// across rebuild calls reuses its storage.
func (x *PairIndex) rebuild(block trace.Block, prune int) *RuleSet {
	x.reset()
	for _, p := range block {
		x.counts.Add(packPair(p.Source, p.Replier), 1)
	}
	return x.snapshot(prune, 0)
}
