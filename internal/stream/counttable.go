// Package stream holds the two keyed-stream primitives the learn plane
// runs on: CountTable, the additive support-count table under
// core.PairIndex, and DropRing, the bounded drop-oldest queue behind
// every overload-protected intake.
package stream

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

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
//
// The table is two parallel arrays, keys and vals, of one power-of-two
// length. A stored count is never zero, so a zero in vals marks a free
// slot, Reset is one clear of vals, and Decay is one linear pass over
// vals. Up to smallSlots slots the table is scanned rather than hashed
// and may fill completely: a per-node learner that tracks three pairs
// holds two 4-slot arrays. Larger tables are open-addressed with linear
// probing at load <= 1/2 and backward-shift deletion. The zero value is
// an empty table, which is how core.PairIndex holds its two by value, and
// nothing is allocated before the first insert. Keys are integers (the
// packed pair keys and host ids of core.PairIndex), so the hash is one
// multiply.
type CountTable[K ~int | ~uint32 | ~uint64] struct {
	keys  []K
	vals  []float64
	n     int
	shift uint // 64 - log2(len(vals)) once hashed, 0 while scanned
}

const (
	firstSlots = 4 // array length at the first insert
	smallSlots = 8 // longest table that is scanned instead of hashed
)

// hashMul is the odd multiplier of the multiply-shift hash, drawn once
// per process. It decides only where a key sits, never what a lookup
// answers.
var hashMul = rand.Uint64() | 1

// home is the slot a hashed table probes first for k.
func (t *CountTable[K]) home(k K) int { return int(uint64(k) * hashMul >> t.shift) }

// find returns the slot that holds k, or (ok false) the free slot k
// belongs in; a full scanned table has none and reports len(vals).
func (t *CountTable[K]) find(k K) (slot int, ok bool) {
	if t.shift == 0 {
		slot = len(t.vals)
		for i := len(t.vals) - 1; i >= 0; i-- {
			if t.vals[i] == 0 {
				slot = i
			} else if t.keys[i] == k {
				return i, true
			}
		}
		return slot, false
	}
	mask := len(t.vals) - 1
	for slot = t.home(k); t.vals[slot] != 0; slot = (slot + 1) & mask {
		if t.keys[slot] == k {
			return slot, true
		}
	}
	return slot, false
}

// insert stores (k, v), v > 0, for an absent k whose free slot find
// reported as slot, growing the table first when that is due.
func (t *CountTable[K]) insert(slot int, k K, v float64) {
	if size := len(t.vals); slot == size || t.shift != 0 && 2*(t.n+1) > size {
		t.grow()
		slot, _ = t.find(k)
	}
	t.keys[slot], t.vals[slot] = k, v
	t.n++
}

// grow doubles the arrays (a full scanned table of smallSlots goes to the
// first hashed size that holds it at load <= 1/2) and re-places every
// entry.
func (t *CountTable[K]) grow() {
	keys, vals := t.keys, t.vals
	size := max(firstSlots, 2*len(vals))
	if size > smallSlots {
		size = max(size, 4*smallSlots)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	t.keys, t.vals = make([]K, size), make([]float64, size)
	for i, v := range vals {
		if v != 0 {
			slot, _ := t.find(keys[i])
			t.keys[slot], t.vals[slot] = keys[i], v
		}
	}
}

// remove frees an occupied slot. In a hashed table every later entry of
// the run that probed past the slot shifts back, so lookups never meet a
// gap before their key.
func (t *CountTable[K]) remove(slot int) {
	t.n--
	if t.shift != 0 {
		mask := len(t.vals) - 1
		for next := (slot + 1) & mask; t.vals[next] != 0; next = (next + 1) & mask {
			if (next-t.home(t.keys[next]))&mask >= (next-slot)&mask {
				t.keys[slot], t.vals[slot] = t.keys[next], t.vals[next]
				slot = next
			}
		}
	}
	t.vals[slot] = 0
}

// Add adjusts k's count by w (negative w removes support) and returns the
// count before and after. Entries whose count drops to zero or below are
// deleted, so a fully retired key costs no memory and now reports 0.
func (t *CountTable[K]) Add(k K, w float64) (old, now float64) {
	slot, ok := t.find(k)
	if ok {
		old = t.vals[slot]
	}
	now = old + w
	switch {
	case now <= 0:
		now = 0
		if ok {
			t.remove(slot)
		}
	case ok:
		t.vals[slot] = now
	default:
		t.insert(slot, k, now)
	}
	return old, now
}

// Set overwrites k's count with v exactly (no additive rounding) and
// returns the previous count. v <= 0 deletes the entry.
func (t *CountTable[K]) Set(k K, v float64) (old float64) {
	slot, ok := t.find(k)
	if ok {
		old = t.vals[slot]
	}
	switch {
	case v <= 0:
		if ok {
			t.remove(slot)
		}
	case ok:
		t.vals[slot] = v
	default:
		t.insert(slot, k, v)
	}
	return old
}

// Get returns k's current count (0 when untracked).
func (t *CountTable[K]) Get(k K) float64 {
	if slot, ok := t.find(k); ok {
		return t.vals[slot]
	}
	return 0
}

// Len returns the number of tracked keys.
func (t *CountTable[K]) Len() int { return t.n }

// Reset drops every entry while keeping the allocated capacity, so a table
// that is rebuilt per window reuses its storage.
func (t *CountTable[K]) Reset() {
	clear(t.vals)
	t.n = 0
}

// Range calls f for every tracked key until f returns false. Iteration
// order is unspecified; f must not mutate the table.
func (t *CountTable[K]) Range(f func(k K, count float64) bool) {
	for i, v := range t.vals {
		if v != 0 && !f(t.keys[i], v) {
			return
		}
	}
}

// Decay multiplies every count by factor (which must not be negative),
// deleting entries that fall below floor or underflow to zero. onCross
// observes the (old, now) pair of every entry whose count crossed
// threshold — now is 0 for deleted entries — so callers can maintain
// threshold-crossing bookkeeping; a zero threshold is never crossed, and
// a nil onCross observes nothing. onCross must not touch the table.
//
// The sweep is one pass over vals with no test for a free slot: zero
// times factor is zero again, and what marks a slot dead — occupied and
// now below the floor — is a single unsigned compare on the float bits.
// A hashed table is swept from just past a free slot, so every run of
// occupied slots is met at its head; the entries a removal shifts back
// then all come from slots the sweep has yet to reach, and the freed slot
// is simply visited again.
func (t *CountTable[K]) Decay(factor, floor, threshold float64, onCross func(k K, old, now float64)) {
	const signBit = 1 << 63
	if onCross == nil {
		onCross = func(K, float64, float64) {}
	}
	floorBits := uint64(1) // no floor: only underflow to zero kills
	if floor > 0 {
		floorBits = math.Float64bits(floor)
	}
	vals := t.vals
	mask := len(vals) - 1
	start := 0
	if t.shift != 0 {
		for vals[start] != 0 {
			start++
		}
	}
	for i, end := start+1, start+len(vals); i <= end; i++ {
		slot := i & mask
		v := vals[slot]
		now := v * factor
		vals[slot] = now
		// A positive float orders as its bits do. A free slot (v == 0)
		// has (bits(v) - 1) wrap to all ones, which sets the sign bit
		// and fails the compare; a live one leaves bits(now) as it is.
		if math.Float64bits(now)|(math.Float64bits(v)-1)&signBit < floorBits {
			k := t.keys[slot]
			t.remove(slot)
			i--
			if v >= threshold && threshold > 0 {
				onCross(k, v, 0)
			}
		} else if (v >= threshold) != (now >= threshold) {
			onCross(t.keys[slot], v, now)
		}
	}
}
