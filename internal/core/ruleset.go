// Package core implements the paper's primary contribution: association
// rules for query routing in unstructured P2P networks (§III-B).
//
// A node observes which neighbor forwarded each query (the antecedent) and
// which neighbor a reply for that query came back through (the consequent).
// Pairs seen at least a support threshold number of times within a block of
// traffic become rules {host1} -> {host2}; future queries from host1 are
// forwarded only to the top consequents for host1 instead of being flooded,
// with flooding as a fallback. Rule-set quality is measured by coverage
// (α = n/N, Eq. 1) and success (ρ = s/n, Eq. 2). Four maintenance policies
// — Static Ruleset, Sliding Window, Lazy Sliding Window, and Adaptive
// Sliding Window — plus the paper's future-work incremental policy are in
// policy.go; all of them maintain their support counts through the
// incremental pair-count engine in pairindex.go.
package core

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"arq/internal/trace"
)

// flatTable is an open-addressed uint64 -> uint8 table with linear probing
// at load <= 1/2: the per-query state of a block test and the membership
// sets of a RuleSet. A zero byte marks a free slot, so every stored value
// is non-zero and clearing the table is one memclr of vals; keys left over
// from an earlier use are never read.
type flatTable struct {
	keys  []uint64
	vals  []uint8
	shift uint // 64 - log2(len(keys))
}

// hashMul is the odd multiplier of the table's multiply-shift hash, drawn
// once per process so no block of GUIDs can be built to collide ahead of
// time. It decides only where a key sits, never what a lookup answers.
var hashMul = rand.Uint64() | 1

// reset empties the table and sizes it for n keys, reusing its arrays when
// they are large enough.
func (t *flatTable) reset(n int) {
	lg := bits.Len(uint(2*n) | 1)
	size := 1 << lg
	if cap(t.keys) < size {
		t.keys, t.vals = make([]uint64, size), make([]uint8, size)
	}
	t.keys, t.vals, t.shift = t.keys[:size], t.vals[:size], uint(64-lg)
	clear(t.vals)
}

// find returns the slot that holds k, or the free slot k belongs in when
// it is absent (ok false). It writes nothing, so concurrent finds on an
// unchanging table are safe.
func (t *flatTable) find(k uint64) (slot uint64, ok bool) {
	mask := uint64(len(t.vals) - 1)
	for slot = (k * hashMul) >> t.shift; t.vals[slot] != 0; slot = (slot + 1) & mask {
		if t.keys[slot] == k {
			return slot, true
		}
	}
	return slot, false
}

// add puts k in the set.
func (t *flatTable) add(k uint64) {
	slot, _ := t.find(k)
	t.keys[slot], t.vals[slot] = k, 1
}

// has reports whether k is in the table.
func (t *flatTable) has(k uint64) bool {
	_, ok := t.find(k)
	return ok
}

// RuleEntry is one rule of the table: the packed {antecedent} ->
// {replier} pair and its support.
type RuleEntry struct {
	Key     PairKey
	Support float64
}

// rules is the one rule table (§III-B.1), embedded by RuleSet and
// RuleSnapshot alike: one flat slice sorted by antecedent ascending, then
// support descending, then replier ascending. Every antecedent's
// consequents are therefore one contiguous run, already in forwarding
// order (highest support first, HostID as the deterministic tiebreak),
// found by binary search. A table is immutable once its holder is built.
type rules []RuleEntry

// ruleCmp is the canonical table order every producer (the index
// snapshot, the learner's rebuild and its one-run rebuild, the codec
// decoder, RemapSnapshot) shares. Keys are unique within a table, so the
// order is total and any sort reaches the same table.
func ruleCmp(a, b RuleEntry) int {
	if sa, sb := a.Key.Source(), b.Key.Source(); sa != sb {
		return cmp.Compare(sa, sb)
	}
	if a.Support != b.Support {
		return cmp.Compare(b.Support, a.Support)
	}
	return cmp.Compare(a.Key, b.Key)
}

// sortRules puts rules into the canonical table order without allocating.
func sortRules(rules []RuleEntry) {
	slices.SortFunc(rules, ruleCmp)
}

// runBounds returns the half-open index range of src's run in rules.
func runBounds(rules []RuleEntry, src trace.HostID) (lo, hi int) {
	hi = len(rules)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rules[m].Key.Source() < src {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi = lo; hi < len(rules) && rules[hi].Key.Source() == src; hi++ {
	}
	return lo, hi
}

// Len returns the number of rules in the table.
func (t rules) Len() int { return len(t) }

// run returns the rules whose antecedent is src, ordered by descending
// support with HostID as the tiebreak. The slice aliases the table's
// immutable storage: callers must not modify it.
func (t rules) run(src trace.HostID) []RuleEntry {
	lo, hi := runBounds(t, src)
	return t[lo:hi:hi]
}

// Support returns the support of {src} -> {rep}, or 0 if it is not a rule.
func (t rules) Support(src, rep trace.HostID) float64 {
	k := packPair(src, rep)
	for _, e := range t.run(src) {
		if e.Key == k {
			return e.Support
		}
	}
	return 0
}

// Consequents returns up to k consequent hosts for queries arriving from
// src, ordered by descending support with HostID as the tiebreak: "sent
// to the k neighbors with the highest support" (§III-B.1). k <= 0 returns
// all of them.
func (t rules) Consequents(src trace.HostID, k int) []trace.HostID {
	run := t.run(src)
	if len(run) == 0 {
		return nil
	}
	if k > 0 && k < len(run) {
		run = run[:k]
	}
	out := make([]trace.HostID, len(run))
	for i, e := range run {
		out[i] = e.Key.Replier()
	}
	return out
}

// Range calls f for every rule in canonical order until f returns false.
func (t rules) Range(f func(k PairKey, support float64) bool) {
	for _, e := range t {
		if !f(e.Key, e.Support) {
			return
		}
	}
}

// RuleSet is the set of routing rules a node derives from one generation
// window: the rule table (Len, Support, Consequents, Range) plus the
// two membership sets the block test asks of it, "is src an antecedent"
// and "is this pair a rule", as flat tables, because a block test asks
// them once or twice per pair and must not binary-search. RuleSets are
// immutable once built and safe for concurrent readers.
type RuleSet struct {
	rules
	pairs, antes flatTable
}

// newRuleSet builds the membership sets over t, which is in canonical
// order and owned by the rule set afterwards.
func newRuleSet(t rules) *RuleSet {
	rs := &RuleSet{rules: t}
	rs.pairs.reset(len(t))
	rs.antes.reset(len(t))
	for _, e := range t {
		rs.pairs.add(uint64(e.Key))
		rs.antes.add(uint64(e.Key.Source()))
	}
	return rs
}

// GenerateRuleSet implements GENERATE-RULESET: count (source, replier)
// pairs within the block and keep those seen at least pruneThreshold times
// (support pruning, §III-B.1). The paper's experimental default threshold
// is 10. A threshold below 1 is treated as 1. This is the one-shot form of
// the engine; policies that keep a window alive hold a PairIndex instead.
func GenerateRuleSet(block trace.Block, pruneThreshold int) *RuleSet {
	return NewPairIndex().rebuild(block, pruneThreshold)
}

// covers reports whether any rule has src as its antecedent — i.e. the
// rule set can route queries arriving from src.
func (rs *RuleSet) covers(src trace.HostID) bool {
	return rs.antes.has(uint64(src))
}

// matches reports whether {src} -> {replier} is a rule in the set.
func (rs *RuleSet) matches(src, replier trace.HostID) bool {
	return rs.pairs.has(uint64(packPair(src, replier)))
}

// TestResult is the outcome of RULESET-TEST over one block (§III-B.2).
type TestResult struct {
	// N is the number of unique replied-to queries in the test block.
	N int
	// Covered (the paper's n) is how many of those queries came from a
	// source that appears as a rule antecedent.
	Covered int
	// Successful (the paper's s) is how many covered queries had a reply
	// arrive through a neighbor that is a rule consequent for that source.
	Successful int
}

// Coverage returns α = n/N, or 0 when the block held no replied queries.
func (t TestResult) Coverage() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Covered) / float64(t.N)
}

// Success returns ρ = s/n, or 0 when nothing was covered.
func (t TestResult) Success() float64 {
	if t.Covered == 0 {
		return 0
	}
	return float64(t.Successful) / float64(t.Covered)
}

// Per-query state of a block test, one byte per GUID in a flatTable.
const (
	qSeen uint8 = 1 << iota
	qCovered
	qSuccessful
)

// guidTables recycles the per-query tables of evalBlock, so a block test
// allocates nothing once a table of the block's size exists and rule sets
// shared between goroutines (sim.Sweep) need no lock.
var guidTables = sync.Pool{New: func() any { return new(flatTable) }}

// blockTest is what one RULESET-TEST asks its questions of, as data, so
// the loop probes flat tables directly and makes no indirect call per
// pair. Exactly one of rs and inc is set.
type blockTest struct {
	// rs answers from its antecedent set and its rule-pair set.
	rs *RuleSet
	// antes, when set, gives each pair the antecedent id its (source,
	// interest) has in rs (Sliding.UseInterest); an antecedent it has no
	// id for reads id 0, which no rule carries: uncovered.
	antes *anteIDs
	// inc is the incremental policy, whose index trains on each pair
	// right after scoring it, the test-then-train discipline of §VI, so a
	// pair is evaluated against the rule state as of its arrival. Its
	// antecedent is covered while some pair of it is a rule, and the one
	// probe that adds the pair also answers, from the support before,
	// whether it was a rule.
	inc *Incremental
}

// evalBlock is the one RULESET-TEST loop (§III-B.2): queries are
// identified by GUID, a query with several replies counts once, its
// covered status is fixed at first sighting, and it is successful if any
// of its replies matches a rule for its antecedent.
func evalBlock(block trace.Block, on blockTest) TestResult {
	seen := guidTables.Get().(*flatTable)
	seen.reset(len(block))
	var res TestResult
	for i := range block {
		p := &block[i]
		src := p.Source
		if on.antes != nil {
			src = on.antes.ids[anteOf(p)]
		}
		slot, ok := seen.find(uint64(p.GUID))
		st := seen.vals[slot]
		if !ok {
			st = qSeen
			res.N++
			if on.inc != nil && on.inc.activeBySrc.Get(src) > 0 || on.inc == nil && on.rs.covers(src) {
				st |= qCovered
				res.Covered++
			}
			seen.keys[slot], seen.vals[slot] = uint64(p.GUID), st
		}
		if in := on.inc; in != nil {
			k := packPair(src, p.Replier)
			old, now := in.idx.counts.Add(k, 1)
			in.track(k, old, now)
			if old >= in.threshold && st == qSeen|qCovered {
				seen.vals[slot] = st | qSuccessful
				res.Successful++
			}
		} else if st == qSeen|qCovered && on.rs.matches(src, p.Replier) {
			seen.vals[slot] = st | qSuccessful
			res.Successful++
		}
	}
	guidTables.Put(seen)
	return res
}

// Test implements RULESET-TEST: evaluate the rule set against a block of
// query–reply pairs.
func (rs *RuleSet) Test(block trace.Block) TestResult {
	return evalBlock(block, blockTest{rs: rs})
}
