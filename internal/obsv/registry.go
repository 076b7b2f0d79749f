package obsv

import "sync"

// Registry is a named instrument store with get-or-create registration.
// Registration takes a lock; recording against a returned instrument never
// does. Instrument names are conventionally dot-separated
// "package.subsystem.metric" (e.g. "transport.queue_sheds").
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
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

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// Snapshot captures every instrument's current value. Zero-valued
// instruments are included, so a reader that takes deltas finds every
// name it asks for, whether or not a run exercised its path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counts)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	return s
}

// Default is the process-wide registry every internal package records
// into.
var Default = newRegistry()

// GetCounter returns the named counter from the Default registry.
func GetCounter(name string) *Counter { return Default.counter(name) }

// GetGauge returns the named gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.gauge(name) }
