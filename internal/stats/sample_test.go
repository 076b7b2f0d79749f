package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestZipfRanksInRange(t *testing.T) {
	r := NewRNG(1)
	z := NewZipf(50, 1.0)
	for i := 0; i < 10000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 50 {
			t.Fatalf("rank %d out of range", k)
		}
	}
}

func TestZipfMonotoneProbabilities(t *testing.T) {
	z := NewZipf(20, 1.2)
	for i := 1; i < 20; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", i, z.Prob(i), i-1, z.Prob(i-1))
		}
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := float64(sRaw%30) / 10 // 0.0 .. 2.9
		z := NewZipf(n, s)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += z.Prob(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Fatalf("Prob(%d)=%v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfEmpiricalMatchesAnalytic(t *testing.T) {
	r := NewRNG(2)
	z := NewZipf(10, 1.0)
	counts := make([]int, 10)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i := 0; i < 10; i++ {
		emp := float64(counts[i]) / n
		if math.Abs(emp-z.Prob(i)) > 0.01 {
			t.Fatalf("rank %d: empirical %v vs analytic %v", i, emp, z.Prob(i))
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := NewRNG(3)
	p := NewBoundedPareto(1.2, 1, 100)
	for i := 0; i < 10000; i++ {
		x := p.Sample(r)
		if x < 1 || x > 100 {
			t.Fatalf("sample %v out of [1,100]", x)
		}
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	// With alpha close to 1 a nontrivial fraction of mass should be far
	// above the median — the property the churn model relies on.
	r := NewRNG(4)
	p := NewBoundedPareto(1.1, 1, 1000)
	big := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Sample(r) > 50 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.01 || frac > 0.3 {
		t.Fatalf("tail fraction %v outside heavy-tail band", frac)
	}
}

func TestBoundedParetoEmpiricalMean(t *testing.T) {
	r := NewRNG(5)
	p := NewBoundedPareto(1.5, 2, 200)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(p.Sample(r))
	}
	want := p.Mean()
	if math.Abs(s.Mean()-want)/want > 0.05 {
		t.Fatalf("empirical mean %v vs analytic %v", s.Mean(), want)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := NewRNG(7)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		out := SampleWithoutReplacement(r, n, k)
		if len(out) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := NewRNG(8)
	out := SampleWithoutReplacement(r, 10, 10)
	seen := make([]bool, 10)
	for _, v := range out {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d missing from full sample", i)
		}
	}
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// The guide-table walk must return exactly what a binary search of the
// cdf returns: the popularity draws of every model and trace generator
// are pinned by goldens, so a rank that moves by one moves them all.
// zipfPoints are the u where an off-by-one shows: 0, every cdf[i] and
// its two float neighbours, every bucket edge k/N and its lower
// neighbour, and the largest u below 1. Mutations each check catches:
// dropping the back step (the walk from above), dropping the forward step
// or `< u` → `<= u` in it (every point), `>= u` → `> u` in the back step
// (the walk from above at u = cdf[i]), and a guide built with `<=` (the
// guide check).
func zipfPoints(z *Zipf) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for _, c := range z.cdf {
		us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
	}
	n := len(z.cdf)
	for k := 1; k < n; k++ {
		q := float64(k) / float64(n)
		us = append(us, q, math.Nextafter(q, 0))
	}
	return us
}

// checkZipf holds z at u to sort.SearchFloat64s: through the guide, and
// walking from two ranks below and two above the answer.
func checkZipf(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if u < 0 || u >= 1 {
		return
	}
	want := sort.SearchFloat64s(z.cdf, u)
	n := len(z.cdf)
	if got := z.rank(u); got != want {
		t.Fatalf("n=%d: rank(%v) = %d, binary search %d", n, u, got, want)
	}
	for _, start := range []int{max(want-2, 0), min(want+2, n-1)} {
		if got := z.walk(start, u); got != want {
			t.Fatalf("n=%d: walk from %d to %v ends at %d, binary search %d", n, start, u, got, want)
		}
	}
}

func TestZipfSampleMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 200, 10000} {
		for _, s := range []float64{0, 0.9, 2} {
			z := NewZipf(n, s)
			for k, g := range z.guide {
				if want := sort.SearchFloat64s(z.cdf, float64(k)/float64(n)); int(g) != want {
					t.Fatalf("n=%d s=%v: guide[%d] = %d, first rank reaching %d/N is %d", n, s, k, g, k, want)
				}
			}
			for _, u := range zipfPoints(z) {
				checkZipf(t, z, u)
			}
		}
	}
	// Sample is rank on the RNG's next Float64.
	z, a, b := NewZipf(200, 0.9), NewRNG(5), NewRNG(5)
	for i := 0; i < 1000; i++ {
		if got, want := z.Sample(a), sort.SearchFloat64s(z.cdf, b.Float64()); got != want {
			t.Fatalf("draw %d: Sample %d, binary search %d", i, got, want)
		}
	}
}

// FuzzZipfSample holds the walk to the binary search at any u, or at a
// cdf point nudged by up to three floats, for n up to 10 000 and s in
// [0, 3].
func FuzzZipfSample(f *testing.F) {
	f.Add(uint16(199), uint8(9), uint64(0), uint8(0))
	f.Add(uint16(9999), uint8(20), uint64(1<<63), uint8(1))
	f.Add(uint16(1), uint8(0), ^uint64(0), uint8(4))
	type key struct {
		n int
		s float64
	}
	zipfs := map[key]*Zipf{}
	f.Fuzz(func(t *testing.T, nRaw uint16, sRaw uint8, bits uint64, mode uint8) {
		k := key{int(nRaw)%10000 + 1, float64(sRaw%31) / 10}
		z := zipfs[k]
		if z == nil {
			if len(zipfs) == 64 { // up to 120 KB a sampler: keep the cache small
				clear(zipfs)
			}
			z = NewZipf(k.n, k.s)
			zipfs[k] = z
		}
		u := float64(bits>>11) / (1 << 53)
		if mode%5 != 0 { // snap to a cdf point, then step 0–3 floats down or up
			u = z.cdf[bits%uint64(k.n)]
			for i := uint8(0); i < mode/5%4; i++ {
				if mode%5 < 3 {
					u = math.Nextafter(u, 0)
				} else {
					u = math.Nextafter(u, 2)
				}
			}
		}
		checkZipf(t, z, u)
	})
}
