package stats

import "math"

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^S. It precomputes the cumulative distribution once, plus a
// guide table of N buckets: guide[k] is the first rank whose cumulative
// probability reaches k/N. A draw u starts at guide[⌊u·N⌋] and walks to
// the first rank with cdf >= u, which is what a binary search of the cdf
// returns for every u, in O(1) expected steps (N ranks over N buckets).
// The sampler is immutable after construction apart from the
// caller-supplied RNG, so it is safe to copy and to share.
type Zipf struct {
	cdf   []float64
	guide []int32
}

// NewZipf builds a Zipf sampler over n ranks with exponent s. It panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf requires n > 0")
	}
	if s < 0 {
		panic("stats: NewZipf requires s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	guide := make([]int32, n)
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/float64(n) {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// Sample draws a rank in [0, N): the first rank whose cdf reaches a
// uniform u in [0, 1), exactly sort.SearchFloat64s(cdf, u).
func (z *Zipf) Sample(r *RNG) int { return z.rank(r.Float64()) }

func (z *Zipf) rank(u float64) int {
	return z.walk(int(z.guide[int(u*float64(len(z.guide)))]), u)
}

// walk finds u's rank from any start i: back while the rank below still
// reaches u, then forward while i's does not (cdf[N-1] = 1 > u ends it).
// The guide's start only makes the walk short; the bucket ⌊u·N⌋ can
// round past u's own, which the back step absorbs.
func (z *Zipf) walk(i int, u float64) int {
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return i
}

// BoundedPareto samples from a Pareto distribution with shape Alpha
// truncated to [Lo, Hi]. Heavy-tailed session lengths in the trace
// generator use this: most draws are small, a minority are very large,
// which is the empirical shape of peer uptimes in deployed unstructured
// P2P networks.
type BoundedPareto struct {
	Alpha  float64
	Lo, Hi float64
}

// NewBoundedPareto constructs the sampler. It panics unless
// 0 < lo < hi and alpha > 0.
func NewBoundedPareto(alpha, lo, hi float64) *BoundedPareto {
	if !(lo > 0 && hi > lo) || alpha <= 0 {
		panic("stats: NewBoundedPareto requires 0 < lo < hi and alpha > 0")
	}
	return &BoundedPareto{Alpha: alpha, Lo: lo, Hi: hi}
}

// Sample draws a value in [Lo, Hi] by inverse transform.
func (p *BoundedPareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	if x < p.Lo {
		x = p.Lo
	}
	if x > p.Hi {
		x = p.Hi
	}
	return x
}

// SampleLengthBiased draws from the length-biased version of the
// distribution (density proportional to x·f(x)). Sampling the session
// length of the peer occupying a slot at a random instant — rather than the
// length of a freshly started session — requires length biasing: long
// sessions occupy slots in proportion to their duration.
func (p *BoundedPareto) SampleLengthBiased(r *RNG) float64 {
	u := r.Float64()
	a := p.Alpha
	if a == 1 {
		// Length-biased density is uniform on [Lo, Hi].
		return p.Lo + u*(p.Hi-p.Lo)
	}
	e := 1 - a
	loE := math.Pow(p.Lo, e)
	hiE := math.Pow(p.Hi, e)
	x := math.Pow(loE+u*(hiE-loE), 1/e)
	if x < p.Lo {
		x = p.Lo
	}
	if x > p.Hi {
		x = p.Hi
	}
	return x
}

// UniformLengthBiased draws from the length-biased version of a uniform
// distribution on [lo, hi] (density proportional to x).
func UniformLengthBiased(r *RNG, lo, hi float64) float64 {
	if !(hi > lo) || lo < 0 {
		panic("stats: UniformLengthBiased requires 0 <= lo < hi")
	}
	u := r.Float64()
	return math.Sqrt(lo*lo + u*(hi*hi-lo*lo))
}

// Mean returns the analytic mean of the bounded Pareto distribution.
func (p *BoundedPareto) Mean() float64 {
	a, l, h := p.Alpha, p.Lo, p.Hi
	if a == 1 {
		return (l * h / (h - l)) * math.Log(h/l)
	}
	la := math.Pow(l, a)
	return la / (1 - math.Pow(l/h, a)) * (a / (a - 1)) *
		(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is in random order.
func SampleWithoutReplacement(r *RNG, n, k int) []int {
	if k < 0 || k > n {
		panic("stats: SampleWithoutReplacement requires 0 <= k <= n")
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
