package obsv

import (
	"encoding/json"
	"math"
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

func TestHistogramBuckets(t *testing.T) {
	r := newRegistry()
	h := r.histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1+10+11+100+101+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	s := h.snapshot()
	want := map[int64]int64{10: 2, 100: 2, math.MaxInt64: 2}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if got := h.Mean(); got != float64(h.Sum())/6 {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramKeepsOriginalBounds(t *testing.T) {
	r := newRegistry()
	h1 := r.histogram("h", []int64{1, 2})
	h2 := r.histogram("h", []int64{99})
	if h1 != h2 {
		t.Fatal("histogram not shared by name")
	}
	if len(h1.bounds) != 2 {
		t.Fatalf("bounds overwritten: %v", h1.bounds)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := newRegistry()
	r.counter("c").Add(3)
	r.gauge("g").Set(9)
	r.histogram("h", expBuckets(1, 10, 3)).Observe(50)
	s := r.Snapshot()
	if s.Counters["c"] != 3 || s.Gauges["g"] != 9 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestExpBuckets(t *testing.T) {
	b := expBuckets(1000, 4, 4)
	want := []int64{1000, 4000, 16000, 64000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b[i], want[i])
		}
	}
	if n := len(DurationBuckets()); n != 13 {
		t.Fatalf("duration buckets = %d", n)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines; run
// with -race this guards the lock-free recording paths.
func TestConcurrentRecording(t *testing.T) {
	r := newRegistry()
	c := r.counter("c")
	h := r.histogram("h", expBuckets(1, 4, 8))
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(w*per + i))
				r.gauge("g").Set(int64(i))
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
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
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
	GetHistogram("obsv.test.hist", SizeBuckets()).Observe(3)
	s := Default.Snapshot()
	if _, ok := s.Counters["obsv.test.counter"]; !ok {
		t.Fatal("default snapshot missing counter")
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observed value (0 before any observation).
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}
