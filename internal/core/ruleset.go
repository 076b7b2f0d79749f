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
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"arq/internal/obsv"
	"arq/internal/trace"
)

// Observability instruments: rule-set regeneration is the system's
// dominant recurring cost (the paper reports "no more than a few seconds"
// per generation), so count, duration, and resulting table size are
// tracked for every build, and block tests likewise. Delta-window policies
// record only the snapshot here — their counting happens incrementally.
var (
	mRegens     = obsv.GetCounter("core.ruleset.regens")
	mRegenNs    = obsv.GetHistogram("core.ruleset.regen_ns", obsv.DurationBuckets())
	mRegenRules = obsv.GetHistogram("core.ruleset.rules", obsv.SizeBuckets())
	mTests      = obsv.GetCounter("core.ruleset.tests")
	mTestNs     = obsv.GetHistogram("core.ruleset.test_ns", obsv.DurationBuckets())
)

// Rule is one routing rule {Antecedent} -> {Consequent}: forwarding a query
// received from Antecedent on to Consequent has previously led to hits
// Support times within the generation block.
type Rule struct {
	Antecedent trace.HostID
	Consequent trace.HostID
	Support    int
}

// String renders the rule in the paper's notation.
func (r Rule) String() string {
	return fmt.Sprintf("{%s} -> {%s} (support %d)", r.Antecedent, r.Consequent, r.Support)
}

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

// RuleSet is the set of routing rules a node derives from one generation
// window. The block test asks only "is src an antecedent" and "is this
// pair a rule", so those two sets are flat tables (antes, pairs); the
// support map and the per-antecedent consequent lists, pre-sorted by
// descending support (HostID ascending as the deterministic tiebreak),
// serve the accessors that are not on that path. RuleSets are immutable
// once built and safe for concurrent readers.
type RuleSet struct {
	support      map[PairKey]int
	conseq       map[trace.HostID][]trace.HostID
	pairs, antes flatTable
}

// newRuleSet builds the immutable query structures over a pruned support
// table. The table is owned by the rule set afterwards.
func newRuleSet(support map[PairKey]int) *RuleSet {
	rs := &RuleSet{support: support, conseq: make(map[trace.HostID][]trace.HostID)}
	rs.pairs.reset(len(support))
	for k := range support {
		src := k.Source()
		rs.conseq[src] = append(rs.conseq[src], k.Replier())
		rs.pairs.add(uint64(k))
	}
	rs.antes.reset(len(rs.conseq))
	for src, list := range rs.conseq {
		src := src
		rs.antes.add(uint64(src))
		sort.Slice(list, func(i, j int) bool {
			si, sj := support[PackPair(src, list[i])], support[PackPair(src, list[j])]
			if si != sj {
				return si > sj
			}
			return list[i] < list[j]
		})
	}
	return rs
}

// GenerateRuleSet implements GENERATE-RULESET: count (source, replier)
// pairs within the block and keep those seen at least pruneThreshold times
// (support pruning, §III-B.1). The paper's experimental default threshold
// is 10. A threshold below 1 is treated as 1. This is the one-shot form of
// the engine; policies that keep a window alive hold a PairIndex instead.
func GenerateRuleSet(block trace.Block, pruneThreshold int) *RuleSet {
	return NewPairIndex().Rebuild(block, pruneThreshold)
}

// Len returns the number of rules in the set.
func (rs *RuleSet) Len() int { return len(rs.support) }

// Covers reports whether any rule has src as its antecedent — i.e. the
// rule set can route queries arriving from src.
func (rs *RuleSet) Covers(src trace.HostID) bool {
	return rs.antes.has(uint64(src))
}

// Matches reports whether {src} -> {replier} is a rule in the set.
func (rs *RuleSet) Matches(src, replier trace.HostID) bool {
	return rs.pairs.has(uint64(PackPair(src, replier)))
}

// SupportOf returns the support count of {src} -> {replier}, or 0 if the
// rule is absent.
func (rs *RuleSet) SupportOf(src, replier trace.HostID) int {
	return rs.support[PackPair(src, replier)]
}

// Consequents returns up to k consequent hosts for queries arriving from
// src, ordered by descending support with HostID as a deterministic
// tiebreak — "sent to the k neighbors with the highest support"
// (§III-B.1). k <= 0 returns all consequents for src. The ordering is
// precomputed at build time, so this is a slice copy.
func (rs *RuleSet) Consequents(src trace.HostID, k int) []trace.HostID {
	list := rs.conseq[src]
	if len(list) == 0 {
		return nil
	}
	if k > 0 && k < len(list) {
		list = list[:k]
	}
	out := make([]trace.HostID, len(list))
	copy(out, list)
	return out
}

// Antecedents returns the sorted antecedent hosts of the rule set.
func (rs *RuleSet) Antecedents() []trace.HostID {
	out := make([]trace.HostID, 0, len(rs.conseq))
	for h := range rs.conseq {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rules returns every rule, sorted by antecedent then consequent, for
// inspection and serialization.
func (rs *RuleSet) Rules() []Rule {
	out := make([]Rule, 0, len(rs.support))
	for k, c := range rs.support {
		out = append(out, Rule{Antecedent: k.Source(), Consequent: k.Replier(), Support: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Antecedent != out[j].Antecedent {
			return out[i].Antecedent < out[j].Antecedent
		}
		return out[i].Consequent < out[j].Consequent
	})
	return out
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

// RuleView is the read interface rule evaluation needs: whether queries
// from src are covered at all, and whether a specific (source, replier)
// pair is a rule. Both the immutable RuleSet and the live decay-mode
// PairIndex implement it, so the simulator's block tests and the online
// incremental policy share one evaluator — and therefore one set of rule
// semantics.
type RuleView interface {
	Covers(src trace.HostID) bool
	Matches(src, replier trace.HostID) bool
}

// EvaluateBlock runs RULESET-TEST (§III-B.2) over a block against any rule
// view.
func EvaluateBlock(v RuleView, block trace.Block) TestResult {
	return evalBlock(block,
		func(p *trace.Pair) bool { return v.Covers(p.Source) },
		func(p *trace.Pair) bool { return v.Matches(p.Source, p.Replier) }, nil)
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

// evalBlock is the one RULESET-TEST loop (§III-B.2): queries are
// identified by GUID, a query with several replies counts once, its
// covered status is fixed at first sighting, and it is successful if any
// of its replies matches a rule for its antecedent. covers and matches
// take the whole pair because the antecedent need not be the source alone
// (ExtRuleSet). The optional train hook is invoked after each pair has
// been scored — the test-then-train discipline of the incremental policy,
// which folds each pair in only after it was evaluated against the rule
// state as of its arrival.
func evalBlock(block trace.Block, covers, matches func(*trace.Pair) bool, train func(trace.Pair)) TestResult {
	seen := guidTables.Get().(*flatTable)
	seen.reset(len(block))
	var res TestResult
	for i := range block {
		p := &block[i]
		slot, ok := seen.find(uint64(p.GUID))
		st := seen.vals[slot]
		if !ok {
			st = qSeen
			res.N++
			if covers(p) {
				st |= qCovered
				res.Covered++
			}
			seen.keys[slot], seen.vals[slot] = uint64(p.GUID), st
		}
		if st == qSeen|qCovered && matches(p) {
			seen.vals[slot] = st | qSuccessful
			res.Successful++
		}
		if train != nil {
			train(*p)
		}
	}
	guidTables.Put(seen)
	return res
}

// Test implements RULESET-TEST: evaluate the rule set against a block of
// query–reply pairs.
func (rs *RuleSet) Test(block trace.Block) TestResult {
	start := time.Now()
	res := evalBlock(block,
		func(p *trace.Pair) bool { return rs.Covers(p.Source) },
		func(p *trace.Pair) bool { return rs.Matches(p.Source, p.Replier) }, nil)
	mTests.Inc()
	mTestNs.Observe(time.Since(start).Nanoseconds())
	return res
}
