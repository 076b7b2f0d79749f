// Package obsv is the repository's observability substrate: atomic
// counters and gauges, owned by what they measure. Recording is one
// atomic add on a field of the owner's instrument set — no lock, no
// allocation, no lookup by name.
//
// An instrument set is a struct of Counter and Gauge fields, each tagged
// with its name. Every transport.Transport and vantage.Servent registers
// its own with Default and retires it when it closes; the simulator
// plane (routing.assoc.*, core.publish.*, fault.*, peer.queries*) holds
// one set per package, which nothing closes. Registry.Snapshot is the
// view by name that benchmark/ and internal/chaos read; everything else
// reads an owner's fields. Every field has a reader, which the
// dead-weight test checks.
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
