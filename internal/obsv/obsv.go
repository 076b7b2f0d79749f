// Package obsv is the repository's observability substrate: lightweight
// atomic counters, gauges, and fixed-bucket histograms collected in a
// named registry. Hot-path recording is a handful of atomic adds on
// pre-registered instruments — no locks, no allocations, no formatting —
// so the instrumented packages (sim, core, routing, peer, vantage,
// tracegen) pay nothing measurable for being observable.
//
// Instruments are registered once (get-or-create by name, typically in a
// package-level var) and recorded against forever after; Registry.Snapshot
// produces a JSON-marshalable view: benchmark/ reads per-layer counts
// from it and internal/chaos takes per-phase counter deltas.
package obsv

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic last-value instrument (set-or-adjust semantics).
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound histogram: len(bounds)+1 atomic buckets where
// observation v lands in the first bucket with v <= bounds[i], or the
// overflow bucket. Bounds are fixed at registration, so Observe is a
// branch-free-allocation walk over a small slice plus two atomic adds.
type Histogram struct {
	bounds []int64 // ascending upper bounds; immutable after creation
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// snapshot renders the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, 0, len(h.counts)),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue // keep snapshots sparse; bounds are reconstructable
		}
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: c})
	}
	return s
}

// expBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor, for histograms over long-tailed quantities.
func expBuckets(start int64, factor float64, n int) []int64 {
	out := make([]int64, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		out[i] = int64(v)
		v *= factor
	}
	return out
}

// DurationBuckets covers 1µs..~17s in nanoseconds — the range of every
// timed operation in this repository (rule generation, block tests,
// whole simulation runs).
func DurationBuckets() []int64 { return expBuckets(1_000, 4, 13) }

// SizeBuckets covers 1..~260k — rule-table sizes, message counts, block
// sizes.
func SizeBuckets() []int64 { return expBuckets(1, 4, 10) }
