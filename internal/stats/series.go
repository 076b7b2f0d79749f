package stats

import (
	"math"
	"strings"
)

// Series is a named sequence of float64 observations indexed by trial
// number. The bench harness uses Series to carry per-block coverage and
// success values and to render them the way the paper's figures plot them.
type Series struct {
	Name   string
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(v float64) { s.Values = append(s.Values, v) }

// Mean returns the mean of the series, or 0 if empty.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Tail returns the mean of the last n observations (or all of them when the
// series is shorter). The Static Ruleset experiment reports both the global
// average and late-trial behaviour, which this supports.
func (s *Series) Tail(n int) float64 {
	if n >= len(s.Values) {
		return s.Mean()
	}
	return Mean(s.Values[len(s.Values)-n:])
}

// downsample returns at most n points, averaging each bucket, for compact
// terminal plots of long series.
func (s *Series) downsample(n int) []float64 {
	if n <= 0 || len(s.Values) == 0 {
		return nil
	}
	if len(s.Values) <= n {
		out := make([]float64, len(s.Values))
		copy(out, s.Values)
		return out
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(s.Values) / n
		hi := (i + 1) * len(s.Values) / n
		if hi <= lo {
			hi = lo + 1
		}
		out[i] = Mean(s.Values[lo:hi])
	}
	return out
}

// Sparkline renders the series as a one-line unicode bar plot scaled to
// [0, 1]; values outside the range are clamped. Width selects the number of
// downsampled buckets.
func (s *Series) Sparkline(width int) string {
	bars := []rune("▁▂▃▄▅▆▇█")
	pts := s.downsample(width)
	var b strings.Builder
	for _, v := range pts {
		if math.IsNaN(v) {
			b.WriteRune('?')
			continue
		}
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		idx := int(v * float64(len(bars)-1))
		b.WriteRune(bars[idx])
	}
	return b.String()
}
