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

func TestSnapshotAndReset(t *testing.T) {
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
	r.Reset()
	s = r.Snapshot()
	if s.Counters["c"] != 0 || s.Gauges["g"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	if r.counter("c").Value() != 0 {
		t.Fatal("instrument identity lost across Reset")
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

func TestHistogramQuantile(t *testing.T) {
	r := newRegistry()
	h := r.histogram("q", []int64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("quantile before observations = %v, want 0", got)
	}
	// 10 observations per bucket: (0,10], (10,20], overflow (>40).
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
		h.Observe(100)
	}
	// Rank 15 of 30 sits halfway through the (10,20] bucket.
	if got := h.Quantile(0.5); got != 15 {
		t.Fatalf("p50 = %v, want 15", got)
	}
	// Ranks in the overflow bucket report the highest finite bound.
	if got := h.Quantile(1); got != 40 {
		t.Fatalf("p100 = %v, want 40 (highest finite bound)", got)
	}
	if got := h.Quantile(0.99); got != 40 {
		t.Fatalf("p99 = %v, want 40", got)
	}
	// Out-of-range q clamps rather than panicking or extrapolating.
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Fatalf("clamping: q=-1 -> %v (want %v), q=2 -> %v (want %v)", lo, h.Quantile(0), hi, h.Quantile(1))
	}
	// An empty middle bucket interpolates within the buckets that hold data.
	r2 := newRegistry()
	h2 := r2.histogram("q2", []int64{1, 2, 3})
	h2.Observe(1)
	h2.Observe(3)
	if got := h2.Quantile(1); got != 3 {
		t.Fatalf("p100 with gap = %v, want 3", got)
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
