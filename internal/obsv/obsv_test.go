package obsv

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := newRegistry()
	c := r.counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.counter("a.count") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.gauge("a.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := newRegistry()
	r.counter("c").Add(3)
	r.gauge("g").Set(9)
	s := r.Snapshot()
	if s.Counters["c"] != 3 || s.Gauges["g"] != 9 {
		t.Fatalf("snapshot = %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines; run
// with -race this guards the lock-free recording paths.
func TestConcurrentRecording(t *testing.T) {
	r := newRegistry()
	c := r.counter("c")
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				r.gauge("g").Add(int64(w))
				r.gauge("g").Add(-int64(w))
				if i%1000 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g := r.gauge("g").Value(); g != 0 {
		t.Fatalf("gauge = %d after balanced adjustments, want 0", g)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	c := GetCounter("obsv.test.counter")
	before := c.Value()
	c.Inc()
	if GetCounter("obsv.test.counter").Value() != before+1 {
		t.Fatal("default registry helpers do not share instruments")
	}
	GetGauge("obsv.test.gauge").Set(1)
	s := Default.Snapshot()
	if _, ok := s.Counters["obsv.test.counter"]; !ok {
		t.Fatal("default snapshot missing counter")
	}
	if s.Gauges["obsv.test.gauge"] != 1 {
		t.Fatal("default snapshot missing gauge")
	}
}
