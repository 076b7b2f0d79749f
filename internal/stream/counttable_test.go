package stream

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestCountTableAddAndDeleteAtZero(t *testing.T) {
	tab := new(CountTable[int])
	if old, now := tab.Add(7, 2); old != 0 || now != 2 {
		t.Fatalf("Add = (%v, %v)", old, now)
	}
	if old, now := tab.Add(7, 3); old != 2 || now != 5 {
		t.Fatalf("Add = (%v, %v)", old, now)
	}
	if tab.Get(7) != 5 || tab.Len() != 1 {
		t.Fatalf("get=%v len=%d", tab.Get(7), tab.Len())
	}
	// Integer add/remove is exact in float64: removing the same weight
	// lands on zero and evicts the entry rather than leaving residue.
	if old, now := tab.Add(7, -5); old != 5 || now != 0 {
		t.Fatalf("Add = (%v, %v)", old, now)
	}
	if tab.Len() != 0 || tab.Get(7) != 0 {
		t.Fatalf("entry not evicted: len=%d get=%v", tab.Len(), tab.Get(7))
	}
}

func TestCountTableSet(t *testing.T) {
	tab := new(CountTable[int])
	if old := tab.Set(7, 1.5); old != 0 {
		t.Fatalf("old = %v", old)
	}
	if old := tab.Set(7, 4); old != 1.5 {
		t.Fatalf("old = %v", old)
	}
	if tab.Get(7) != 4 {
		t.Fatalf("get = %v", tab.Get(7))
	}
	if old := tab.Set(7, 0); old != 4 {
		t.Fatalf("old = %v", old)
	}
	if tab.Len() != 0 {
		t.Fatalf("Set(0) kept entry, len = %d", tab.Len())
	}
}

func TestCountTableDecayFloorAndCallback(t *testing.T) {
	tab := new(CountTable[int])
	tab.Add(1, 4) // -> 2, survives, stays at or above the threshold
	tab.Add(2, 3) // -> 1.5, survives, crosses the threshold downwards
	tab.Add(3, 2) // -> 1, exactly the floor: kept
	tab.Add(4, 1) // -> 0.5, below floor: evicted, never was above: silent
	tab.Add(5, 0.25)
	tab.Set(5, 1.75) // -> 0.875, evicted from below the threshold: silent
	type change struct{ old, now float64 }
	got := make(map[int]change)
	tab.Decay(0.5, 1, 2, func(k int, old, now float64) {
		got[k] = change{old, now}
	})
	if tab.Get(1) != 2 || tab.Get(2) != 1.5 || tab.Get(3) != 1 || tab.Len() != 3 {
		t.Fatalf("after decay: get(1)=%v get(2)=%v get(3)=%v len=%d", tab.Get(1), tab.Get(2), tab.Get(3), tab.Len())
	}
	if want := map[int]change{2: {3, 1.5}, 3: {2, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks = %+v, want %+v", got, want)
	}
	// An entry evicted from at or above the threshold reports now = 0,
	// and the untracked form (zero threshold, nil callback) only ages.
	clear(got)
	tab.Decay(0.25, 0.5, 1.5, func(k int, old, now float64) {
		got[k] = change{old, now}
	})
	if want := map[int]change{1: {2, 0.5}, 2: {1.5, 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks = %+v, want %+v", got, want)
	}
	tab.Decay(0.5, 0, 0, nil)
	if tab.Get(1) != 0.25 || tab.Len() != 1 {
		t.Fatalf("after three decays: get(1)=%v len=%d", tab.Get(1), tab.Len())
	}
}

func TestCountTableResetAndRange(t *testing.T) {
	tab := new(CountTable[int])
	for i := 0; i < 5; i++ {
		tab.Add(i, float64(i+1))
	}
	sum := 0.0
	tab.Range(func(k int, c float64) bool {
		sum += c
		return true
	})
	if sum != 15 {
		t.Fatalf("range sum = %v", sum)
	}
	// Early termination.
	visited := 0
	tab.Range(func(k int, c float64) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("range visited %d after stop", visited)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("len after reset = %d", tab.Len())
	}
	tab.Add(9, 1)
	if tab.Len() != 1 {
		t.Fatal("table unusable after reset")
	}
}

// setHashMul fixes the multiplier for one test. A table built under
// another multiplier is unreadable afterwards, so callers build theirs
// after the call.
func setHashMul(t testing.TB, m uint64) {
	old := hashMul
	hashMul = m | 1
	t.Cleanup(func() { hashMul = old })
}

// mapTable is the oracle: the builtin-map CountTable this one replaced,
// method for method (Decay is its DecayTracked, with underflow to zero
// spelled out as the eviction it now is).
type mapTable map[uint64]float64

func (m mapTable) add(k uint64, w float64) (old, now float64) {
	old = m[k]
	now = old + w
	if now <= 0 {
		delete(m, k)
		return old, 0
	}
	m[k] = now
	return old, now
}

func (m mapTable) set(k uint64, v float64) (old float64) {
	old = m[k]
	if v <= 0 {
		delete(m, k)
		return old
	}
	m[k] = v
	return old
}

func (m mapTable) decay(factor, floor, threshold float64, onCross func(k uint64, old, now float64)) {
	for k, v := range m {
		now := v * factor
		if now < floor || now == 0 {
			delete(m, k)
			now = 0
		} else {
			m[k] = now
		}
		if (v >= threshold) != (now >= threshold) {
			onCross(k, v, now)
		}
	}
}

type crossing struct {
	k        uint64
	old, now float64
}

func sortCrossings(c []crossing) {
	sort.Slice(c, func(i, j int) bool { return c[i].k < c[j].k })
}

// opKey spreads an operation's key byte a and the five high bits e of its
// op byte over 8 192 keys whose top ten bits, (a>>3)<<5 | e, are the home
// slot of a 1 024-slot table under multiplier 1 (the first hashed size;
// the top eleven bits that of a 2 048-slot one, and so on) and whose low
// bits tell apart the eight keys that share a home: homes 1 020..1 023
// carry chains over the array end. An op byte below 8 has e = 0 and
// leaves 256 keys, five top bits of home each.
func opKey(op, a byte) uint64 { return uint64(a>>3)<<59 | uint64(op>>3)<<54 | uint64(a&7) }

var (
	opWeights    = []float64{1, 1, 2, -1, 0.5, -2.5, 10, 1e-320, -1e9, 0}
	opFactors    = []float64{0.9, 0.5, 1, 0.1, 1e-300, 0, 1.5}
	opFloors     = []float64{0.05, 1, 0, 2.5, 11}
	opThresholds = []float64{2, 0, 1, 5}
)

// checkOps interprets data, three bytes an operation, on a CountTable and
// on the map oracle and fails at the first answer, callback multiset or
// table content that differs.
func checkOps(t testing.TB, data []byte) {
	tab, ref := new(CountTable[uint64]), mapTable{}
	for pc := 0; pc+2 < len(data); pc += 3 {
		op, a, b := data[pc], data[pc+1], data[pc+2]
		k := opKey(op, a)
		switch op % 8 {
		case 0, 1, 2:
			w := opWeights[int(b)%len(opWeights)]
			old, now := tab.Add(k, w)
			if rold, rnow := ref.add(k, w); old != rold || now != rnow {
				t.Fatalf("op %d: Add(%#x, %v) = (%v, %v), oracle (%v, %v)", pc/3, k, w, old, now, rold, rnow)
			}
		case 3:
			v := opWeights[int(b)%len(opWeights)]
			if old, rold := tab.Set(k, v), ref.set(k, v); old != rold {
				t.Fatalf("op %d: Set(%#x, %v) = %v, oracle %v", pc/3, k, v, old, rold)
			}
		case 4:
			if got, want := tab.Get(k), ref[k]; got != want {
				t.Fatalf("op %d: Get(%#x) = %v, oracle %v", pc/3, k, got, want)
			}
		case 5, 6:
			factor := opFactors[int(a)%len(opFactors)]
			floor := opFloors[int(b)%len(opFloors)]
			threshold := opThresholds[int(b>>4)%len(opThresholds)]
			var got, want []crossing
			tab.Decay(factor, floor, threshold, func(k uint64, old, now float64) { got = append(got, crossing{k, old, now}) })
			ref.decay(factor, floor, threshold, func(k uint64, old, now float64) { want = append(want, crossing{k, old, now}) })
			sortCrossings(got)
			sortCrossings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Decay(%v, %v, %v) crossings %v, oracle %v", pc/3, factor, floor, threshold, got, want)
			}
			if tab.shift == 0 && len(tab.vals) > max(firstSlots, 4*tab.Len()) {
				t.Fatalf("op %d: a sorted table of %d entries keeps %d slots after a decay", pc/3, tab.Len(), len(tab.vals))
			}
		case 7:
			switch a % 8 { // rare: a Reset empties what the run built up
			case 0:
				tab.Reset()
				clear(ref)
			case 1: // the run goes on in a clone of a table then emptied
				c := tab.Clone()
				tab.Reset()
				tab = &c
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, oracle %d", pc/3, tab.Len(), len(ref))
		}
		checkShape(t, tab, pc/3)
	}
	// Every key is where a lookup finds it, and Range sees each once.
	for k, want := range ref {
		if got := tab.Get(k); got != want {
			t.Fatalf("end: Get(%#x) = %v, oracle %v", k, got, want)
		}
	}
	seen := mapTable{}
	tab.Range(func(k uint64, v float64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("end: Range visits %#x twice", k)
		}
		seen[k] = v
		return true
	})
	if !reflect.DeepEqual(seen, ref) {
		t.Fatalf("end: Range yields %d entries that differ from the oracle's %d", len(seen), len(ref))
	}
}

// checkShape fails unless tab keeps its regime's invariants: a sorted
// table holds at most smallSlots entries as an ascending run of live
// counts, every slot after it free, in arrays of a power-of-two length
// (none before the first insert); a hashed one is at least the first
// hashed size and at most half full.
func checkShape(t testing.TB, tab *CountTable[uint64], op int) {
	n, size := tab.Len(), len(tab.vals)
	if len(tab.keys) != size || size&(size-1) != 0 || n > size {
		t.Fatalf("op %d: %d entries in %d keys and %d vals", op, n, len(tab.keys), size)
	}
	if tab.shift != 0 {
		if size < 4*smallSlots || 2*n > size || int(tab.shift) != 64-bits.TrailingZeros(uint(size)) {
			t.Fatalf("op %d: hashed table of %d entries in %d slots under shift %d", op, n, size, tab.shift)
		}
		return
	}
	if n > smallSlots || size != 0 && size < firstSlots {
		t.Fatalf("op %d: sorted table of %d entries in %d slots", op, n, size)
	}
	for i := range size {
		if live := tab.vals[i] != 0; live != (i < n) || i > 0 && i < n && tab.keys[i-1] >= tab.keys[i] {
			t.Fatalf("op %d: slot %d of a sorted run of %d is not in order: %v %v", op, i, n, tab.keys[:n], tab.vals)
		}
	}
}

// checkOpsAllMuls runs checkOps under the process multiplier and under
// the degenerate 1, where opKey decides each home slot: where keys sit
// may cost time, never answers.
func checkOpsAllMuls(t testing.TB, data []byte) {
	checkOps(t, data)
	old := hashMul // restored here, not by setHashMul's Cleanup: this runs in a loop
	hashMul = 1
	defer func() { hashMul = old }()
	checkOps(t, data)
}

// TestCountTableMatchesMapOracle is the equivalence property over random
// operation sequences long enough to take a sorted table from empty
// through its doublings and back down by decay, and, in a third of the
// runs, past smallSlots entries into the hashed sizes first.
func TestCountTableMatchesMapOracle(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			data := make([]byte, 3*rng.Intn(700))
			rng.Read(data)
			switch rng.Intn(3) {
			case 0: // within 16 keys of 2 homes
				for i := 1; i < len(data); i += 3 {
					data[i-1] &= 7
					data[i] = 0xf0 | data[i]&0x0f
				}
			case 1: // 300 adds of positive weight first: past the bound
				data = append(make([]byte, 3*300), data...)
				rng.Read(data[:3*300])
				for i := 0; i < 3*300; i += 3 {
					data[i] = data[i]&^7 | data[i]%3
					data[i+2] = []byte{0, 1, 2, 4, 6}[data[i+2]%5]
				}
			}
			args[0] = reflect.ValueOf(data)
		},
	}
	if err := quick.Check(func(data []byte) bool { checkOpsAllMuls(t, data); return true }, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzCountTable holds the count table equal to the map oracle, and in
// its regime's shape, on whatever operation sequence the bytes spell: a
// sorted run up to smallSlots entries, a hashed table past them.
func FuzzCountTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 5, 0, 0, 4, 1, 0})
	// Twelve keys of adjacent top bits, a decay that kills some of them,
	// lookups of all.
	var wrap []byte
	for i := byte(0); i < 12; i++ {
		wrap = append(wrap, 0, 30<<3+i%8+i/8<<3, i%3)
	}
	wrap = append(wrap, 5, 1, 3)
	for i := byte(0); i < 12; i++ {
		wrap = append(wrap, 4, 30<<3+i%8+i/8<<3, 0)
	}
	f.Add(wrap)
	f.Add(bytes.Repeat([]byte{1, 0xfa, 1, 6, 0, 0x10}, 30))
	// A sorted table filled with 200 keys in descending order (every
	// insert shifts the whole run), a sixteenth of them ten times as
	// heavy; a decay that keeps only those halves it three times. Then a
	// clone, refills and lookups, a reset.
	var shrink []byte
	for i := 199; i >= 0; i-- {
		shrink = append(shrink, 0, byte(i), []byte{0, 6}[b2i(i%16 == 0)])
	}
	shrink = append(shrink, 5, 1, 1, 7, 1, 0)
	for i := 0; i < 40; i++ {
		shrink = append(shrink, byte(i%32)<<3|1, 0xff, 0, 4, byte(i), 0)
	}
	shrink = append(shrink, 7, 0, 0, 0, 3, 0, 5, 6, 4)
	f.Add(shrink)
	// 300 keys in ascending order through the bound into a hashed table,
	// then eight homed at 1 023 (a chain over the array end), a decay
	// that kills the chain's head and keeps some of its tail, a clone, a
	// second decay and lookups of the chain, a reset of the hashed table.
	var grow []byte
	for i := 0; i < 300; i++ {
		grow = append(grow, byte(i/8%32)<<3|2, byte(i/256)<<3|byte(i%8), []byte{0, 1, 2, 4, 6}[i%5])
	}
	for i := byte(0); i < 8; i++ {
		grow = append(grow, 31<<3, 0xf8|i, []byte{0, 6, 4}[i%3])
	}
	grow = append(grow, 6, 1, 1, 7, 1, 0, 5, 0, 3)
	for i := byte(0); i < 8; i++ {
		grow = append(grow, 31<<3|4, 0xf8|i, 0)
	}
	grow = append(grow, 7, 0, 0, 1, 7, 1)
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) { checkOpsAllMuls(t, data) })
}

// TestCountTableDecayWrappedRun pins the hashed sweep's hardest case by
// hand: a run of occupied slots that starts near the array end and
// continues at slot 0, in which a decay kills adjacent entries on both
// sides of the wrap, so survivors shift back across it while the sweep
// is under way.
func TestCountTableDecayWrappedRun(t *testing.T) {
	setHashMul(t, 1)
	tab, ref := new(CountTable[uint64]), mapTable{}
	put := func(k uint64, v float64) { tab.Set(k, v); ref.set(k, v) }
	// Under multiplier 1 a key's top ten bits are its home in a table of
	// 1 024 slots, the first hashed size: 64 - log2(1 024) is the shift.
	const top = 54
	for i := uint64(0); i < smallSlots+1; i++ { // homes 8..264: past the bound, the table is hashed
		put((8+i)<<top, 100)
	}
	// Homes 1021, 1022, 1022, 1022, 1023, 1022, 1021 fill slots 1021,
	// 1022, 1023, 0, 1, 2, 3.
	for i, k := range []uint64{1021 << top, 1022 << top, 1022<<top | 1, 1022<<top | 2, 1023 << top, 1022<<top | 3, 1021<<top | 1} {
		put(k, []float64{1, 9, 1, 1, 9, 1, 9}[i])
	}
	if len(tab.vals) != 1024 || tab.shift != top || tab.vals[1023] == 0 || tab.vals[3] == 0 || tab.vals[4] != 0 {
		t.Fatalf("layout is not the wrapped run this test is about: %d slots, shift %d, %v", len(tab.vals), tab.shift, tab.vals[1016:])
	}
	var got, want []crossing
	tab.Decay(0.5, 1, 5, func(k uint64, old, now float64) { got = append(got, crossing{k, old, now}) })
	ref.decay(0.5, 1, 5, func(k uint64, old, now float64) { want = append(want, crossing{k, old, now}) })
	sortCrossings(got)
	sortCrossings(want)
	if !reflect.DeepEqual(got, want) || len(got) != 3 {
		t.Fatalf("crossings %v, oracle %v, want the three survivors of the run", got, want)
	}
	if tab.Len() != len(ref) || tab.Len() != smallSlots+4 {
		t.Fatalf("Len = %d, oracle %d, want %d", tab.Len(), len(ref), smallSlots+4)
	}
	for k, v := range ref {
		if tab.Get(k) != v {
			t.Fatalf("Get(%#x) = %v, oracle %v", k, tab.Get(k), v)
		}
	}
	// The three survivors of the run, homes 1021, 1022 and 1023, are home.
	if tab.vals[1021] != 4.5 || tab.vals[1022] != 4.5 || tab.vals[1023] != 4.5 || tab.vals[0] != 0 || tab.vals[3] != 0 {
		t.Fatalf("survivors did not shift back over the wrap: %v %v", tab.vals[1016:], tab.vals[:8])
	}
}

// A sorted table gives back what a decay frees: after every decay its
// arrays are at most four times its live count (or firstSlots), at least
// its count, and its run still answers every lookup.
func TestCountTableDecayShrinksSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fill := range []int{1, 3, 5, 17, 64, 100, smallSlots} {
		tab, ref := new(CountTable[uint64]), mapTable{}
		for _, k := range rng.Perm(fill) {
			v := float64(1 + rng.Intn(1000))
			tab.Set(uint64(k)*7919, v)
			ref.set(uint64(k)*7919, v)
		}
		for tab.Len() > 0 {
			tab.Decay(0.7, 1, 0, nil)
			ref.decay(0.7, 1, 0, func(uint64, float64, float64) {})
			if tab.shift != 0 || len(tab.vals) > max(firstSlots, 4*tab.Len()) || len(tab.vals) < tab.Len() {
				t.Fatalf("fill %d: %d entries in %d slots after a decay", fill, tab.Len(), len(tab.vals))
			}
			checkShape(t, tab, -1)
			for k, v := range ref {
				if tab.Get(k) != v {
					t.Fatalf("fill %d: Get(%d) = %v, oracle %v", fill, k, tab.Get(k), v)
				}
			}
		}
		if len(tab.vals) != firstSlots {
			t.Fatalf("fill %d: an emptied table keeps %d slots, want %d", fill, len(tab.vals), firstSlots)
		}
	}
}

// Range over a sorted table yields its keys in ascending order, each
// once, whatever order they were inserted and removed in.
func TestCountTableRangeSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := new(CountTable[uint32])
	want := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		k := uint32(rng.Intn(400))
		if tab.Len() < smallSlots && rng.Intn(3) > 0 {
			tab.Add(k, 1)
			want[k] = true
		} else {
			tab.Set(k, 0)
			delete(want, k)
		}
		var got []uint32
		tab.Range(func(k uint32, _ float64) bool { got = append(got, k); return true })
		if tab.shift != 0 || len(got) != len(want) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("step %d: Range yields %v over %d keys", i, got, len(want))
		}
		for j := 1; j < len(got); j++ {
			if got[j-1] == got[j] {
				t.Fatalf("step %d: Range yields %d twice", i, got[j])
			}
		}
	}
}

// A learner that has seen nothing owns nothing: reads and decays of an
// empty table allocate nothing, and three pairs cost two 4-slot arrays.
func TestCountTableAllocations(t *testing.T) {
	var sink float64
	n := testing.AllocsPerRun(100, func() {
		tab := new(CountTable[uint64])
		sink += tab.Get(3) + float64(tab.Len())
		tab.Range(func(k uint64, v float64) bool { sink += v; return true })
		tab.Decay(0.9, 0.05, 2, func(k uint64, old, now float64) { sink += now })
		tab.Reset()
	})
	if n != 0 {
		t.Errorf("empty table: %v allocs, want 0", n)
	}
	n = testing.AllocsPerRun(100, func() {
		tab := new(CountTable[uint64])
		tab.Add(1, 1)
		tab.Add(2, 1)
		tab.Add(3, 1)
		tab.Add(3, 1)
		sink += tab.Get(3)
	})
	if n != 2 {
		t.Errorf("three keys: %v allocs, want 2 (keys and vals)", n)
	}
	tab := new(CountTable[uint64])
	for i := uint64(0); i < 3; i++ {
		tab.Add(i, 1)
	}
	if len(tab.keys) != firstSlots || len(tab.vals) != firstSlots {
		t.Errorf("three keys hold %d/%d slots, want %d", len(tab.keys), len(tab.vals), firstSlots)
	}
}

var benchCrossings int

// BenchmarkCountTableDecay is the per-block aging of the §VI incremental
// policy at the size policy-trace runs it: 21 800 live pairs whose ages
// are spread evenly over the 29 decays a single observation survives, a
// fifth of them born above the activation threshold. The pairs a sweep
// evicts are replaced off the clock, so every sweep sees the same table.
func BenchmarkCountTableDecay(b *testing.B) {
	const live = 21800
	tab := new(CountTable[uint64])
	next := uint64(0)
	born := func() float64 {
		next++
		if next%5 == 0 {
			return 8
		}
		return 1
	}
	for i := 0; i < live; i++ {
		v := born()
		for age := i % 29; age > 0; age-- {
			v *= 0.9
		}
		tab.Set(next<<32|next*7%1000, v)
	}
	if len(tab.vals) != 1<<16 {
		b.Fatalf("%d pairs in %d slots, want 65536", live, len(tab.vals))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Decay(0.9, 0.05, 2, func(k uint64, old, now float64) { benchCrossings++ })
		b.StopTimer()
		for tab.Len() < live {
			v := born()
			tab.Set(next<<32|next*7%1000, v)
		}
		b.StartTimer()
	}
}
