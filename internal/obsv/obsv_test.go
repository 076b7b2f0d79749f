package obsv

import (
	"encoding/json"
	"sync"
	"testing"
)

// testSet is an instrument set as its owners declare one.
type testSet struct {
	Count Counter `obsv:"t.count"`
	Level Gauge   `obsv:"t.level"`
}

func TestCounterGauge(t *testing.T) {
	var s testSet
	s.Count.Inc()
	s.Count.Add(4)
	if s.Count.Value() != 5 {
		t.Fatalf("counter = %d, want 5", s.Count.Value())
	}
	s.Level.Set(7)
	s.Level.Add(-2)
	if s.Level.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", s.Level.Value())
	}
}

// Snapshot sums each name over the live sets, and JSON-marshals.
func TestRegistrySnapshot(t *testing.T) {
	r := new(Registry)
	var a, b testSet
	r.Register(&a)
	r.Register(&b)
	a.Count.Add(3)
	b.Count.Add(4)
	a.Level.Set(9)
	b.Level.Set(1)
	s := r.Snapshot()
	if s.Counters["t.count"] != 7 || s.Gauges["t.level"] != 10 {
		t.Fatalf("snapshot = %+v, want t.count 7 and t.level 10", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// Retiring a set moves its counters into the retired totals without
// moving the view, drops its gauges, and leaves its names in the view;
// retiring it again changes nothing.
func TestRegisterRetire(t *testing.T) {
	r := new(Registry)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("empty registry's snapshot = %+v", s)
	}
	var a, b testSet
	retireA := r.Register(&a)
	r.Register(&b)
	a.Count.Add(5)
	a.Level.Set(2)
	b.Count.Add(1)
	b.Level.Set(3)
	before := r.Snapshot()
	retireA()
	after := r.Snapshot()
	if before.Counters["t.count"] != 6 || after.Counters["t.count"] != 6 {
		t.Fatalf("t.count %d before retiring and %d after, want 6 both", before.Counters["t.count"], after.Counters["t.count"])
	}
	if after.Gauges["t.level"] != 3 {
		t.Fatalf("t.level = %d after retiring a, want b's 3", after.Gauges["t.level"])
	}
	a.Count.Add(100) // after retiring: not in the view
	retireA()
	if got := r.Snapshot().Counters["t.count"]; got != 6 {
		t.Fatalf("t.count = %d after a second retire, want 6", got)
	}

	r2 := new(Registry)
	var c testSet
	r2.Register(&c)()
	if s := r2.Snapshot(); s.Counters["t.count"] != 0 {
		t.Fatalf("a retired zero set's snapshot = %+v", s)
	} else if _, ok := s.Counters["t.count"]; !ok {
		t.Fatal("a retired set's counter name left the view")
	}
}

// A set field that is not a tagged, exported Counter or Gauge panics at
// Register.
func TestRegisterRejectsUntaggedFields(t *testing.T) {
	for name, s := range map[string]any{
		"untagged": &struct{ C Counter }{},
		"unexported": &struct {
			c Counter `obsv:"x"`
		}{},
		"other type": &struct {
			N int64 `obsv:"x"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			new(Registry).Register(s)
		}()
	}
}

// TestConcurrentRecording records, snapshots and retires concurrently:
// many goroutines each register a set, record into it and retire it
// while a reader takes snapshots. Every counter in a snapshot only ever
// grows, and the last one holds every count. Run with -race this guards
// recording and the registry's lock.
func TestConcurrentRecording(t *testing.T) {
	r := new(Registry)
	const workers, per = 8, 5000
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		last := int64(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			n := r.Snapshot().Counters["t.count"]
			if n < last {
				t.Errorf("t.count went from %d to %d", last, n)
				return
			}
			last = n
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s testSet
			retire := r.Register(&s)
			for i := 0; i < per; i++ {
				s.Count.Inc()
				s.Level.Add(int64(w))
				s.Level.Add(-int64(w))
				if i%1000 == 0 {
					r.Snapshot()
				}
			}
			if w%2 == 0 {
				retire()
			}
		}()
	}
	wg.Wait()
	close(done)
	reader.Wait()
	s := r.Snapshot()
	if s.Counters["t.count"] != workers*per {
		t.Fatalf("t.count = %d, want %d", s.Counters["t.count"], workers*per)
	}
	if s.Gauges["t.level"] != 0 {
		t.Fatalf("t.level = %d after balanced adjustments, want 0", s.Gauges["t.level"])
	}
}
