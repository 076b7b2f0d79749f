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

// PairIndex is the incremental pair-count engine: one count table keyed
// by PairKey. The windowed policies maintain it by AddBlock/RemoveBlock
// deltas and materialize a RuleSet at a prune threshold (Snapshot); the
// decayed users (the Learner and the §VI Incremental policy) add pairs
// one at a time and age the table by decay. What is a rule at what
// threshold is the reader's business: the Learner publishes its pairs at
// or above LearnerConfig.Threshold, and Incremental keeps its own
// threshold-crossing counts beside its index.
//
// The count table sits in the struct by value, so an index is one object
// and a Learner that holds its index by value adds none. A PairIndex is
// not safe for concurrent use.
type PairIndex struct {
	counts stream.CountTable[PairKey]
}

// NewPairIndex returns an empty engine.
func NewPairIndex() *PairIndex {
	return &PairIndex{}
}

// clone returns an independent copy of x whose count table holds every
// pair in x's slot.
func (x *PairIndex) clone() PairIndex {
	return PairIndex{counts: x.counts.Clone()}
}

// add adjusts the pair's count by w and returns its count now.
func (x *PairIndex) add(src, rep trace.HostID, w float64) float64 {
	_, now := x.counts.Add(packPair(src, rep), w)
	return now
}

// Set overwrites the pair's count exactly.
func (x *PairIndex) Set(src, rep trace.HostID, v float64) {
	x.counts.Set(packPair(src, rep), v)
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
// floor: the per-boundary aging of the online router, one linear sweep of
// the count table.
func (x *PairIndex) decay(factor, floor float64) {
	x.counts.Decay(factor, floor, 0, nil)
}

// reset drops all counts (retaining table capacity), so one index can be
// rebuilt per window without reallocating.
func (x *PairIndex) reset() {
	x.counts.Reset()
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
// keeping pairs with count >= prune (decayed counts truncate toward
// zero). For delta-maintained windows this is the whole recurring cost of
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
