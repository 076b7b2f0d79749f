package tracegen

import (
	"math"
	"testing"

	"arq/internal/stats"
	"arq/internal/trace"
)

// linearPick is the reference pickSource answers for: the first index
// whose running weight sum exceeds u, or the last index when none does.
func linearPick(weights []float64, u float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// checkPick compares pickSource over the sums of weights with the linear
// scan at u, and for u below the total checks that the pick has weight.
func checkPick(t *testing.T, weights []float64, u float64) {
	t.Helper()
	cum := make([]float64, len(weights))
	resum(cum, weights, 0)
	got, want := pickSource(cum, u), linearPick(weights, u)
	if got != want {
		t.Fatalf("weights %v, u %v: pickSource %d, linear scan %d", weights, u, got, want)
	}
	if u < cum[len(cum)-1] && weights[got] == 0 {
		t.Fatalf("weights %v, u %v: picked zero-weight index %d", weights, u, got)
	}
}

func TestPickSourceMatchesLinearScan(t *testing.T) {
	r := stats.NewRNG(6)
	for trial := 0; trial < 2000; trial++ {
		w := make([]float64, 1+r.Intn(neighborSlots))
		for i := range w {
			if !r.Bool(0.3) { // the rest stay zero
				w[i] = activityMin + r.Float64()*(activityMax-activityMin)
			}
		}
		w[r.Intn(len(w))] = activityMax // a positive total
		total := 0.0
		for _, x := range w {
			total += x
		}
		for k := 0; k < 20; k++ {
			checkPick(t, w, r.Float64()*total)
		}
		checkPick(t, w, 0)
		checkPick(t, w, total) // rounded up to the total: the last index
	}

	// A single slot with weight is the only one ever picked, wherever it is.
	for slot := 0; slot < 5; slot++ {
		w := make([]float64, 5)
		w[slot] = 0.7
		for _, u := range []float64{0, 0.1, 0.35, math.Nextafter(0.7, 0)} {
			if got := linearPick(w, u); got != slot {
				t.Fatalf("reference picked %d of %v at u %v", got, w, u)
			}
			checkPick(t, w, u)
		}
	}

	// With trailing zeros, u at the total falls through to the last index
	// in both, as the linear scan always did.
	w := []float64{1, 3, 0, 0}
	checkPick(t, w, 4)
	if got := pickSource([]float64{1, 4, 4, 4}, 4); got != 3 {
		t.Fatalf("pickSource at the total = %d, want 3", got)
	}
}

// FuzzPickSource holds the binary-search pick to the linear scan on weight
// vectors of mixed magnitude, zeros included, at a uniform u and at the
// total.
func FuzzPickSource(f *testing.F) {
	f.Add([]byte{1, 0, 3}, uint64(0))
	f.Add([]byte{0, 0, 0x47, 0}, ^uint64(0))
	f.Add([]byte{0xf1, 0x01, 0x80, 0x3c, 0x10}, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64) {
		w := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			w[i] = math.Ldexp(float64(b&0x0f), int(b>>4)-8)
			total += w[i]
		}
		if total == 0 {
			return
		}
		checkPick(t, w, float64(bits>>11)/(1<<53)*total)
		checkPick(t, w, total)
	})
}

// A shock fraction above 1 (a scenario event can carry one) replaces every
// slot, exactly as a fraction of 1 does, instead of asking for more slots
// than there are.
func TestShockFractionAboveOne(t *testing.T) {
	mk := func(frac float64) *Generator {
		c := smallConfig(12)
		c.TotalBlocks = 4
		c.ShockAtBlock = 2
		c.ShockFraction = frac
		return New(c)
	}
	over, full := mk(1.5), mk(1)
	for b := 0; b < 2; b++ {
		over.Next()
		full.Next()
	}
	before := map[trace.HostID]bool{}
	for _, n := range over.neighbors {
		before[n.id] = true
	}
	bo, _ := over.Next()
	bf, _ := full.Next()
	for _, n := range over.neighbors {
		if before[n.id] {
			t.Fatalf("neighbor %d survived a shock of fraction 1.5", n.id)
		}
	}
	for i := range bo {
		if bo[i] != bf[i] {
			t.Fatalf("pair %d differs from the fraction-1 stream: %+v vs %+v", i, bo[i], bf[i])
		}
	}
}
