// Package stream holds three primitives: CountTable, the additive
// support-count table under core.PairIndex; DropRing, the bounded
// drop-oldest queue behind every overload-protected intake; and Arena,
// the per-node runs of values over one compacting array that hold the
// overlay graph's adjacency and the content model's hosted categories.
package stream

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
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
// slot and Reset is one clear of vals. Up to smallSlots entries the table
// is one sorted run: keys[:n] ascend, their counts sit beside them, every
// slot past n is free, a lookup is a binary search and an insert or a
// removal shifts the run's tail. Such a table fills completely before it
// doubles, and a decay, one compacting pass in key order, halves it while
// it is at most a quarter full (never below firstSlots), so its arrays
// stay within four times its live count: a per-node learner that tracks
// three pairs holds two 4-slot arrays, one that decays from 200 pairs to
// 20 goes from 256 slots to 64. Past smallSlots entries the table is
// open-addressed with linear probing at load <= 1/2 and backward-shift
// deletion, and stays so. The zero value is an empty table, which is how
// core.PairIndex holds it by value, and nothing is allocated before the
// first insert. Keys are integers (the packed pair keys and host ids
// of core.PairIndex), so order is a compare and the hash is one multiply.
type CountTable[K ~int | ~uint32 | ~uint64] struct {
	keys  []K
	vals  []float64
	n     int32
	shift uint8 // 64 - log2(len(vals)) once hashed, 0 while sorted
}

const (
	firstSlots = 4   // array length at the first insert
	smallSlots = 256 // most entries a sorted table holds before it is hashed
)

// hashMul is the odd multiplier of the multiply-shift hash, drawn once
// per process. It decides only where a key sits in a hashed table, never
// what a lookup answers.
var hashMul = rand.Uint64() | 1

// home is the slot a hashed table probes first for k.
func (t *CountTable[K]) home(k K) int { return int(uint64(k) * hashMul >> t.shift) }

// find returns the slot that holds k, or (ok false) the slot k belongs
// in: in a sorted table the index of the first larger key, which is n
// (and len(vals) when the table is full) if there is none; in a hashed
// one the free slot its probe ends on.
func (t *CountTable[K]) find(k K) (slot int, ok bool) {
	if t.shift == 0 {
		n := int(t.n)
		if n == 0 {
			return 0, false
		}
		// A lower bound without a branch on the keys: k's slot is in
		// [slot, slot+n], and each step halves n. Lookups come in no
		// order, so a compare-and-branch would mispredict half the
		// time.
		keys := t.keys[:n]
		for n > 1 {
			half := n >> 1
			slot += half & -b2i(keys[slot+half] < k)
			n -= half
		}
		slot += b2i(keys[slot] < k)
		return slot, slot < len(keys) && keys[slot] == k
	}
	mask := len(t.vals) - 1
	for slot = t.home(k); t.vals[slot] != 0; slot = (slot + 1) & mask {
		if t.keys[slot] == k {
			return slot, true
		}
	}
	return slot, false
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so find's binary search has no branch on the keys it compares.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// insert stores (k, v), v > 0, for an absent k whose slot find reported,
// growing the table first when that is due: a sorted table when it is
// full, a hashed one past load 1/2.
func (t *CountTable[K]) insert(slot int, k K, v float64) {
	n, size := int(t.n), len(t.vals)
	if t.shift == 0 && n == size || t.shift != 0 && 2*(n+1) > size {
		t.grow()
		slot, _ = t.find(k)
	}
	if t.shift == 0 {
		copy(t.keys[slot+1:n+1], t.keys[slot:n])
		copy(t.vals[slot+1:n+1], t.vals[slot:n])
	}
	t.keys[slot], t.vals[slot] = k, v
	t.n++
}

// grow doubles the arrays. A full sorted table of smallSlots goes to the
// first hashed size that holds it at load <= 1/2 and re-places every
// entry; a smaller one stays sorted and keeps its run as it is.
func (t *CountTable[K]) grow() {
	size := max(firstSlots, 2*len(t.vals))
	if t.shift == 0 && size <= smallSlots {
		t.resize(size)
		return
	}
	keys, vals := t.keys, t.vals
	size = max(size, 4*smallSlots)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.keys, t.vals = make([]K, size), make([]float64, size)
	for i, v := range vals {
		if v != 0 {
			slot, _ := t.find(keys[i])
			t.keys[slot], t.vals[slot] = keys[i], v
		}
	}
}

// resize moves a sorted table's run into new arrays of size slots.
func (t *CountTable[K]) resize(size int) {
	n := t.n
	keys, vals := make([]K, size), make([]float64, size)
	copy(keys, t.keys[:n])
	copy(vals, t.vals[:n])
	t.keys, t.vals = keys, vals
}

// remove frees an occupied slot. In a sorted table the run's tail shifts
// down over it. In a hashed table every later entry of the run that
// probed past the slot shifts back, so lookups never meet a gap before
// their key.
func (t *CountTable[K]) remove(slot int) {
	t.n--
	if t.shift == 0 {
		n := int(t.n)
		copy(t.keys[slot:n], t.keys[slot+1:n+1])
		copy(t.vals[slot:n], t.vals[slot+1:n+1])
		t.vals[n] = 0
		return
	}
	mask := len(t.vals) - 1
	for next := (slot + 1) & mask; t.vals[next] != 0; next = (next + 1) & mask {
		if (next-t.home(t.keys[next]))&mask >= (next-slot)&mask {
			t.keys[slot], t.vals[slot] = t.keys[next], t.vals[next]
			slot = next
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

// Clone returns an independent copy of t, slot for slot: the copy holds
// every key where t does, so Range and Decay visit both in one order
// (re-inserting would re-place the entries). An empty t clones to an
// empty table, allocated as t is.
func (t *CountTable[K]) Clone() CountTable[K] {
	return CountTable[K]{keys: slices.Clone(t.keys), vals: slices.Clone(t.vals), n: t.n, shift: t.shift}
}

// Len returns the number of tracked keys.
func (t *CountTable[K]) Len() int { return int(t.n) }

// Reset drops every entry while keeping the allocated capacity, so a table
// that is rebuilt per window reuses its storage.
func (t *CountTable[K]) Reset() {
	clear(t.vals)
	t.n = 0
}

// Range calls f for every tracked key until f returns false. A sorted
// table yields its keys in ascending order; otherwise the order is
// unspecified. f must not mutate the table.
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
// A sorted table is one compacting pass in key order, after which it
// halves while at most a quarter full. A hashed table's sweep is one pass
// over vals with no test for a free slot: zero times factor is zero
// again, and what marks a slot dead — occupied and now below the floor —
// is a single unsigned compare on the float bits. It starts just past a
// free slot, so every run of occupied slots is met at its head; the
// entries a removal shifts back then all come from slots the sweep has
// yet to reach, and the freed slot is simply visited again.
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
	if t.shift == 0 {
		// A positive float orders as its bits do, and every slot of the
		// run is live.
		keys, kept := t.keys, 0
		for i, v := range vals[:t.n] {
			now := v * factor
			if math.Float64bits(now) < floorBits {
				if v >= threshold && threshold > 0 {
					onCross(keys[i], v, 0)
				}
				continue
			}
			if (v >= threshold) != (now >= threshold) {
				onCross(keys[i], v, now)
			}
			keys[kept], vals[kept] = keys[i], now
			kept++
		}
		clear(vals[kept:t.n])
		t.n = int32(kept)
		size := len(vals)
		for size > firstSlots && kept <= size/4 {
			size /= 2
		}
		if size < len(vals) {
			t.resize(size)
		}
		return
	}
	mask := len(vals) - 1
	start := 0
	for vals[start] != 0 {
		start++
	}
	for i, end := start+1, start+len(vals); i <= end; i++ {
		slot := i & mask
		v := vals[slot]
		now := v * factor
		vals[slot] = now
		// A free slot (v == 0) has (bits(v) - 1) wrap to all ones,
		// which sets the sign bit and fails the compare; a live one
		// leaves bits(now) as it is.
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
