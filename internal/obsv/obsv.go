// Package obsv is the repository's observability substrate: lightweight
// atomic counters and gauges collected in a named registry. Hot-path
// recording is one atomic add on a pre-registered instrument — no locks,
// no allocations, no formatting — so the instrumented packages (core,
// routing, peer, fault, transport, vantage) pay nothing measurable for
// being observable.
//
// Instruments are registered once (get-or-create by name, in a
// package-level var) and recorded against forever after; every one has a
// reader, which the repository's dead-weight test checks. Registry.Snapshot
// produces a JSON-marshalable view: benchmark/ reads per-layer counts from
// it, internal/chaos takes per-phase counter deltas, and internal/cluster
// reads the transport counters around its measured phase.
package obsv

import "sync/atomic"

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
