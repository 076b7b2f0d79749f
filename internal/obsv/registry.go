package obsv

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
)

// Registry is the read-time view over registered instrument sets; the
// zero value is an empty one. Registering and retiring a set take a lock;
// recording never does.
type Registry struct {
	mu      sync.Mutex
	live    map[any][]field  // by the pointer each set was registered with
	retired map[string]int64 // counter totals of retired sets
}

// field is one instrument of a registered set.
type field struct {
	name  string
	v     *atomic.Int64
	gauge bool
}

// Register adds the instrument set s points to to the view and returns
// the function that retires it. Every field of the set is an exported
// Counter or Gauge tagged with its name, `obsv:"layer.metric"`; anything
// else panics. Retiring folds the set's counters into the retired totals
// and drops its gauges under the lock, so no counter in a Snapshot moves
// across it; a count recorded after it is lost. Retiring twice is a no-op.
func (r *Registry) Register(s any) (retire func()) {
	v := reflect.ValueOf(s).Elem()
	var set []field
	for i := 0; i < v.NumField(); i++ {
		f := field{name: v.Type().Field(i).Tag.Get("obsv")}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			f.v = &p.v
		case *Gauge:
			f.v, f.gauge = &p.v, true
		}
		if f.v == nil || f.name == "" {
			panic(fmt.Sprintf("obsv: %s.%s is not a Counter or Gauge with an obsv tag", v.Type(), v.Type().Field(i).Name))
		}
		set = append(set, f)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live == nil {
		r.live, r.retired = map[any][]field{}, map[string]int64{}
	}
	r.live[s] = set
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, f := range r.live[s] {
			if !f.gauge {
				r.retired[f.name] += f.v.Load()
			}
		}
		delete(r.live, s)
	}
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// Snapshot captures every instrument by name: a counter is its retired
// total plus its value in every live set, a gauge the sum over live
// sets. Zero values are included, so a reader that takes deltas finds
// every name any set has registered, whether or not a run exercised its
// path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: maps.Clone(r.retired), Gauges: map[string]int64{}}
	for _, set := range r.live {
		for _, f := range set {
			if f.gauge {
				s.Gauges[f.name] += f.v.Load()
			} else {
				s.Counters[f.name] += f.v.Load()
			}
		}
	}
	return s
}

// Default is the process-wide registry every instrument set registers
// with.
var Default = new(Registry)
