package obsv

import (
	"sync"
)

// Registry is a named instrument store with get-or-create registration.
// Registration takes a lock; recording against a returned instrument never
// does. Instrument names are conventionally dot-separated
// "package.subsystem.metric" (e.g. "core.ruleset.regen_ns").
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed (an existing histogram keeps its
// original bounds).
func (r *Registry) histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered instrument (instrument identities are
// preserved, so pointers held by instrumented packages stay valid). Used
// to scope a snapshot to one benchmark run.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counts {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Bucket is one histogram bucket in a snapshot: Count observations with
// value <= Le (Le == math.MaxInt64 marks the overflow bucket).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON view of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. Zero-valued counters
// and gauges are included so the instrument inventory is visible in the
// artifact even for paths a run did not exercise.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Default is the process-wide registry every internal package records
// into; cmd/arqbench snapshots it into the benchmark artifact.
var Default = newRegistry()

// GetCounter returns the named counter from the Default registry.
func GetCounter(name string) *Counter { return Default.counter(name) }

// GetGauge returns the named gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.gauge(name) }

// GetHistogram returns the named histogram from the Default registry.
func GetHistogram(name string, bounds []int64) *Histogram {
	return Default.histogram(name, bounds)
}
