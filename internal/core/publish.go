package core

import (
	"slices"
	"sort"

	"arq/internal/obsv"
	"arq/internal/trace"
)

// This file is the serve plane of the rule lifecycle: a Learner, the
// single writer of a PairIndex (the write plane), materializes the index
// into immutable, versioned RuleSnapshots exposed through an
// atomic.Pointer — lock-free for any number of concurrent readers.
// Routing decisions vastly outnumber rule updates in deployment (the
// read-dominant assumption of the paper's online router and of the
// related queries-routing simulators), so the read path must never
// contend with the write path: readers only ever load a pointer, and a
// publish is one pointer swap.

// Observability instruments for snapshot publication, aggregated across
// every learner in the process (one per deployed node). The counter
// accumulates; the gauges are last-writer-wins — a cheap liveness signal
// (is anything publishing, at what version, how big), not a per-node
// breakdown.
var (
	mPublishes   = obsv.GetCounter("core.publish.count")
	gPublishVer  = obsv.GetGauge("core.publish.version")
	gPublishSize = obsv.GetGauge("core.publish.rules")
)

// RuleSnapshot is one published generation of a node's routing knowledge:
// the rule table (Len, Support, Consequents, Range) of the pairs at
// or above the activation threshold at publish time, with their decayed
// supports. A snapshot is immutable once published. Its readers ask for
// an antecedent's whole run, never "is this pair a rule" a block at a
// time, so unlike a RuleSet it carries no membership sets.
type RuleSnapshot struct {
	rules
	version uint64
}

// emptySnapshot is what a Learner serves before its first publish.
var emptySnapshot = &RuleSnapshot{}

// Version returns the snapshot's publication sequence number (0 for the
// pre-first-publish empty snapshot).
func (s *RuleSnapshot) Version() uint64 { return s.version }

// Reason says what Forward found for a query: the one forwarding decision's
// outcome, which each caller turns into its own counters and fallback.
type Reason uint8

const (
	// NoRule: the antecedent has no rule in the snapshot.
	NoRule Reason = iota
	// NoUsable: the antecedent has rules, but none names a usable next hop.
	NoUsable
	// RuleHit: at least one consequent was chosen.
	RuleHit
)

// Forward is the paper's forwarding rule (§III-B), shared by the
// simulator's routers and the live servent: it walks ante's run in s,
// already in forwarding order, and appends to dst the first k consequents
// that usable maps to a usable next hop of the caller's type T. A
// consequent that is not usable (a departed neighbor, a closed
// connection, the sender itself) is skipped and does not use up a slot.
// k must be positive. Forward appends nothing unless it returns RuleHit;
// what to do then, flood or drop, is the caller's choice.
func Forward[T any](s *RuleSnapshot, ante trace.HostID, k int, dst []T, usable func(trace.HostID) (T, bool)) ([]T, Reason) {
	lo, hi := runBounds(s.rules, ante) // s.run without the call: run is too big to inline
	if lo == hi {
		return dst, NoRule
	}
	base := len(dst)
	for _, e := range s.rules[lo:hi] {
		if t, ok := usable(e.Key.Replier()); ok {
			dst = append(dst, t)
			if len(dst)-base == k {
				break
			}
		}
	}
	if len(dst) == base {
		return dst, NoUsable
	}
	return dst, RuleHit
}

// byKey returns a copy of the rules in ascending PairKey order: the
// codec's record order and the order Restore seeds a learn plane in.
func (s *RuleSnapshot) byKey() []RuleEntry {
	out := make([]RuleEntry, len(s.rules))
	copy(out, s.rules)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// rerun returns rules with the run rules[lo:hi] rebuilt from idx: every
// entry's support re-read, the keys of fresh (rules of the run's
// antecedent the run lacks) appended at their index supports, and the run
// sorted again. The input is never modified; the result is one allocation.
func rerun(rules []RuleEntry, lo, hi int, idx *PairIndex, fresh []PairKey) []RuleEntry {
	out := append(make([]RuleEntry, 0, len(rules)+len(fresh)), rules[:lo]...)
	for _, e := range rules[lo:hi] {
		out = append(out, RuleEntry{Key: e.Key, Support: idx.counts.Get(e.Key)})
	}
	for _, k := range fresh {
		out = append(out, RuleEntry{Key: k, Support: idx.counts.Get(k)})
	}
	sortRules(out[lo:])
	return append(out, rules[hi:]...)
}

// ruleEntries returns the index's active rules, its pairs at or above the
// activation threshold, in canonical snapshot order: what a full publish
// serves.
func (idx *PairIndex) ruleEntries() []RuleEntry {
	var rules []RuleEntry
	idx.Range(func(k PairKey, v float64) bool {
		if v >= idx.threshold {
			rules = append(rules, RuleEntry{Key: k, Support: v})
		}
		return true
	})
	sortRules(rules)
	return rules
}

// observeRun publishes what routing reads after a run of observations
// that did nothing to the index but raise the pairs {src} -> {rep}, one
// per rep (no decay, no reset, no other pair); last is the support of the
// last rep's pair now. Routing reads a snapshot's run order and
// membership, never its supports. So the served snapshot stays served, at
// its version, if no raised pair k changes either:
//   - k is absent and still below the threshold, or
//   - k is present and still ranks below its run predecessor, both read at
//     their index supports.
//
// A run whose every raised pair passes keeps the order: a pair that was
// not raised kept its support while its predecessor's could only grow, so
// it still ranks behind. Otherwise the next snapshot is the served one
// with src's run alone rebuilt from the index (rerun): no walk of the
// index, one allocation for the rules. This holds because between full
// publishes only observeRun touches the index, by raising keys, so the
// served order is always the rebuild's. The served supports are as of
// each run's last rebuild; a reader that persists them takes Publish.
// Before the first publish the served snapshot was never built from the
// index, so the publish is a full rebuild. Every other index change is
// followed by publish.
func (l *Learner) observeRun(src trace.HostID, reps []trace.HostID, last float64) {
	base := l.cur.Load()
	if base.version == 0 {
		l.publish()
		return
	}
	lo, hi := runBounds(base.rules, src)
	run := base.rules[lo:hi]
	var buf [8]PairKey // a run that makes more new rules spills to the heap
	fresh, moved := buf[:0], false
	for i, rep := range reps {
		if i > 0 && rep == reps[i-1] {
			continue // the same pair, and the same verdict
		}
		k, now := packPair(src, rep), last
		if i < len(reps)-1 {
			now = l.idx.counts.Get(k)
		}
		at := 0
		for at < len(run) && run[at].Key != k {
			at++
		}
		switch {
		case at == len(run):
			if now >= l.cfg.Threshold && !slices.Contains(fresh, k) {
				fresh = append(fresh, k) // a rule now, and not served
			}
		case at > 0 && !moved:
			pred := run[at-1].Key
			moved = ruleCmp(RuleEntry{Key: pred, Support: l.idx.counts.Get(pred)}, RuleEntry{Key: k, Support: now}) >= 0
		}
	}
	if moved || len(fresh) > 0 {
		l.swap(rerun(base.rules, lo, hi, &l.idx, fresh))
	}
}

// publish materializes the index's current rules as a new immutable
// snapshot and swaps it in, returning the new snapshot.
func (l *Learner) publish() *RuleSnapshot {
	return l.swap(l.idx.ruleEntries())
}

// swap publishes rules as the next version.
func (l *Learner) swap(rules []RuleEntry) *RuleSnapshot {
	l.version++
	s := &RuleSnapshot{rules: rules, version: l.version}
	l.cur.Store(s)
	mPublishes.Inc()
	gPublishVer.Set(int64(s.version))
	gPublishSize.Set(int64(len(rules)))
	return s
}
