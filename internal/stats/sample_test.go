package stats

import (
	"math"
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
