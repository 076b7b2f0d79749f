package stream

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// nestedRuns is the arena's reference: one slice per node, grown by
// append, shrunk by moving the last value into the hole, replaced whole
// by a placed set.
type nestedRuns [][]int32

// packed builds the arena of rows in node order, as a counting sort
// would, and the reference beside it.
func packed(rows [][]int32) (Arena[int32], nestedRuns) {
	runs := make([]Run, len(rows))
	var vals []int32
	ref := make(nestedRuns, len(rows))
	for u, row := range rows {
		runs[u] = Run{Off: uint32(len(vals)), N: uint32(len(row))}
		vals = append(vals, row...)
		ref[u] = slices.Clone(row)
	}
	return PackedArena(vals, runs), ref
}

// applyArenaOps runs ops on a and ref alike, three bytes an operation:
// [0, u, v] appends v to u's run, [1, u, i] swap-removes u's i-th value
// (mod its length; nothing on an empty run), and [2, u, k] stages k%12
// values and places them as u's run. After every operation the two must
// hold the same rows, in order, every row capped at its end; the array
// must hold at most twice the live values; and every row but u's must
// keep the values it had before. It returns how many operations shrank
// the array, the rebuilds.
func applyArenaOps(t *testing.T, a *Arena[int32], ref nestedRuns, ops []byte) (rebuilds int) {
	t.Helper()
	n := len(ref)
	before := make([][]int32, n)
	for i := 0; i+2 < len(ops); i += 3 {
		for w := range before {
			before[w] = a.Row(w)
		}
		prevLen := a.Len()
		u, x := int(ops[i+1])%n, ops[i+2]
		switch ops[i] % 3 {
		case 0:
			a.Append(u, int32(x))
			ref[u] = append(ref[u], int32(x))
		case 1:
			if len(ref[u]) == 0 {
				continue
			}
			j := int(x) % len(ref[u])
			a.SwapRemove(u, j)
			last := len(ref[u]) - 1
			ref[u][j] = ref[u][last]
			ref[u] = ref[u][:last]
		default:
			start := a.Len()
			set := make([]int32, int(x)%12)
			for k := range set {
				set[k] = int32(x) + int32(k)
				a.Stage(set[k])
			}
			if got := a.Tail(start); !slices.Equal(got, set) {
				t.Fatalf("op %d: staged %v, tail reads %v", i/3, set, got)
			}
			a.Place(u, start)
			ref[u] = set
		}
		if a.Len() < prevLen {
			rebuilds++
		}
		live := 0
		for w := range ref {
			row := a.Row(w)
			live += len(row)
			if !slices.Equal(row, ref[w]) {
				t.Fatalf("op %d (%d on %d): row %d = %v, reference %v", i/3, ops[i]%3, u, w, row, ref[w])
			}
			if cap(row) != len(row) {
				t.Fatalf("op %d: row %d of %d has capacity %d", i/3, w, len(row), cap(row))
			}
			if w != u && !slices.Equal(before[w], ref[w]) {
				t.Fatalf("op %d on %d: row %d returned before it reads %v, was %v", i/3, u, w, before[w], ref[w])
			}
		}
		if a.Live() != live || a.N() != n {
			t.Fatalf("op %d: arena counts %d live over %d runs, rows hold %d over %d", i/3, a.Live(), a.N(), live, n)
		}
		if a.Len() > 2*live {
			t.Fatalf("op %d: array holds %d values for %d live", i/3, a.Len(), live)
		}
	}
	return rebuilds
}

// TestArenaMatchesNested holds the arena to the nested-slice reference
// under long random mixes of appends, swap-removes and placed sets, from
// empty and from a packed build, with enough churn that the array is
// rebuilt many times.
func TestArenaMatchesNested(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 1 + rng.IntN(40)
		rows := make([][]int32, n)
		if seed%2 == 0 {
			for u := range rows {
				for range rng.IntN(6) {
					rows[u] = append(rows[u], rng.Int32N(100))
				}
			}
		}
		a, ref := packed(rows)
		ops := make([]byte, 3*5000)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		if rebuilds := applyArenaOps(t, &a, ref, ops); rebuilds < 2 {
			t.Fatalf("seed %d: the array was rebuilt %d times in 5 000 operations; the churn never exercised it", seed, rebuilds)
		}
	}
}

// TestArenaEmpty: an arena of no values answers every run empty, and
// placing an empty set over an empty run changes nothing.
func TestArenaEmpty(t *testing.T) {
	a := NewArena[int32](3)
	a.Place(1, a.Len())
	for u := 0; u < a.N(); u++ {
		if row := a.Row(u); len(row) != 0 {
			t.Fatalf("row %d = %v, want empty", u, row)
		}
	}
	if a.Len() != 0 || a.Live() != 0 {
		t.Fatalf("len %d live %d, want 0 0", a.Len(), a.Live())
	}
}

// FuzzArena is TestArenaMatchesNested on whatever rows and operations the
// bytes spell: the first byte picks the node count, the next n bytes each
// node's packed row length.
func FuzzArena(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0, 0, 5, 1, 1, 0, 2, 2, 9})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 2, 1, 0, 1, 0, 0})
	f.Add([]byte{5, 4, 4, 4, 4, 4, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		data = data[1:]
		rows := make([][]int32, n)
		for u := 0; u < n && len(data) > 0; u++ {
			for k := range int(data[0]) % 8 {
				rows[u] = append(rows[u], int32(u*8+k))
			}
			data = data[1:]
		}
		a, ref := packed(rows)
		applyArenaOps(t, &a, ref, data)
	})
}
