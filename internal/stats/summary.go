package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming statistics (count, mean, variance, min,
// max) using Welford's algorithm, so it is numerically stable for long
// runs. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance, or 0 with fewer than two observations.
func (s *Summary) variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// stddev returns the sample standard deviation.
func (s *Summary) stddev() float64 { return math.Sqrt(s.variance()) }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// String renders the summary compactly for logs and bench output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f",
		s.n, s.Mean(), s.stddev(), s.Min(), s.Max())
}

// MovingMean maintains the mean of the most recent Window values. The
// adaptive sliding-window policy uses it to compute its coverage and
// success thresholds ("the mean of the previous N values", paper §III-B.6).
// The zero value is unusable; construct with NewMovingMean.
type MovingMean struct {
	buf  []float64
	next int
	full bool
	sum  float64
}

// NewMovingMean returns a moving mean over a window of n values; n must be
// positive.
func NewMovingMean(n int) *MovingMean {
	if n <= 0 {
		panic("stats: NewMovingMean requires n > 0")
	}
	return &MovingMean{buf: make([]float64, n)}
}

// Add pushes a value, evicting the oldest once the window is full.
func (m *MovingMean) Add(x float64) {
	if m.full {
		m.sum -= m.buf[m.next]
	}
	m.buf[m.next] = x
	m.sum += x
	m.next++
	if m.next == len(m.buf) {
		m.next = 0
		m.full = true
	}
}

// Len reports how many values are currently in the window.
func (m *MovingMean) Len() int {
	if m.full {
		return len(m.buf)
	}
	return m.next
}

// Mean returns the mean of the windowed values, or 0 if empty.
func (m *MovingMean) Mean() float64 {
	n := m.Len()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts its input.
// Returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
