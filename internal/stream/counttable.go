// Package stream holds the two keyed-stream primitives the learn plane
// runs on: CountTable, the additive support-count table under
// core.PairIndex, and DropRing, the bounded drop-oldest queue behind
// every overload-protected intake.
package stream

// CountTable maintains additive support counts over a keyed stream: the
// shared substrate under core.PairIndex, where every rule-maintenance
// policy and the online association router keep their (source, replier)
// supports. It decays eagerly with a caller-chosen prune floor, because
// the rule semantics built on top require the exact moment an entry is
// dropped to be observable (an entry deleted at one floor and re-added
// later counts from zero, not from its residue).
//
// Counts are float64 so the same table serves both exact windowed counting
// (integer adds and removes stay exact far beyond any block size) and
// recency-weighted decayed counting.
type CountTable[K comparable] struct {
	counts map[K]float64
}

// NewCountTable returns an empty table.
func NewCountTable[K comparable]() *CountTable[K] {
	return &CountTable[K]{counts: make(map[K]float64)}
}

// Add adjusts k's count by w (negative w removes support) and returns the
// count before and after. Entries whose count drops to zero or below are
// deleted, so a fully retired key costs no memory and now reports 0.
func (t *CountTable[K]) Add(k K, w float64) (old, now float64) {
	old = t.counts[k]
	now = old + w
	if now <= 0 {
		now = 0
		delete(t.counts, k)
		return old, now
	}
	t.counts[k] = now
	return old, now
}

// Set overwrites k's count with v exactly (no additive rounding) and
// returns the previous count. v <= 0 deletes the entry.
func (t *CountTable[K]) Set(k K, v float64) (old float64) {
	old = t.counts[k]
	if v <= 0 {
		delete(t.counts, k)
		return old
	}
	t.counts[k] = v
	return old
}

// Get returns k's current count (0 when untracked).
func (t *CountTable[K]) Get(k K) float64 { return t.counts[k] }

// Len returns the number of tracked keys.
func (t *CountTable[K]) Len() int { return len(t.counts) }

// Reset drops every entry while keeping the allocated capacity, so a table
// that is rebuilt per window reuses its storage.
func (t *CountTable[K]) Reset() {
	clear(t.counts)
}

// Range calls f for every tracked key until f returns false. Iteration
// order is unspecified; f must not mutate the table.
func (t *CountTable[K]) Range(f func(k K, count float64) bool) {
	for k, v := range t.counts {
		if !f(k, v) {
			return
		}
	}
}

// Decay multiplies every count by factor, deleting entries that fall below
// floor. onChange, if non-nil, observes every entry's (old, now) pair —
// now is 0 for deleted entries — so callers can maintain derived state
// such as threshold-crossing bookkeeping.
func (t *CountTable[K]) Decay(factor, floor float64, onChange func(k K, old, now float64)) {
	for k, v := range t.counts {
		now := v * factor
		if now < floor {
			delete(t.counts, k)
			now = 0
		} else {
			t.counts[k] = now
		}
		if onChange != nil {
			onChange(k, v, now)
		}
	}
}

// DecayTracked is Decay specialized for threshold-crossing callers: the
// callback fires only for entries whose count crossed threshold (in
// either direction), not for every entry. The decay arithmetic and
// deletion are identical to Decay — only the callback filter differs —
// but a sweep over a large table whose entries mostly sit below the
// threshold now pays one comparison per entry instead of one closure
// call, which is what keeps periodic decay cheap enough for the
// amortized learn-plane budget.
func (t *CountTable[K]) DecayTracked(factor, floor, threshold float64, onCross func(k K, old, now float64)) {
	for k, v := range t.counts {
		now := v * factor
		if now < floor {
			delete(t.counts, k)
			now = 0
		} else {
			t.counts[k] = now
		}
		if (v >= threshold) != (now >= threshold) {
			onCross(k, v, now)
		}
	}
}
