package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("got %s", s.String())
	}
	if math.Abs(s.variance()-2.5) > 1e-12 {
		t.Fatalf("variance = %v, want 2.5", s.variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.variance() != 0 || s.N() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestMovingMeanWindow(t *testing.T) {
	m := NewMovingMean(3)
	m.Add(1)
	if m.Mean() != 1 || m.Len() != 1 {
		t.Fatalf("after 1 add: mean=%v len=%d", m.Mean(), m.Len())
	}
	m.Add(2)
	m.Add(3)
	if m.Mean() != 2 {
		t.Fatalf("mean of 1,2,3 = %v", m.Mean())
	}
	m.Add(10) // evicts 1 -> window 2,3,10
	if m.Mean() != 5 || m.Len() != 3 {
		t.Fatalf("after eviction: mean=%v len=%d", m.Mean(), m.Len())
	}
}

func TestMovingMeanMatchesBruteForce(t *testing.T) {
	f := func(xsRaw []float64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		m := NewMovingMean(n)
		var hist []float64
		for _, x := range xsRaw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			m.Add(x)
			hist = append(hist, x)
			lo := 0
			if len(hist) > n {
				lo = len(hist) - n
			}
			if math.Abs(m.Mean()-Mean(hist[lo:])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSeriesTailAndMean(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if s.Mean() != 5.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Tail(2) != 9.5 {
		t.Fatalf("tail(2) = %v", s.Tail(2))
	}
	if s.Tail(100) != 5.5 {
		t.Fatalf("tail(100) = %v", s.Tail(100))
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Add(1)
	}
	pts := s.downsample(10)
	if len(pts) != 10 {
		t.Fatalf("want 10 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p != 1 {
			t.Fatalf("constant series downsampled to %v", p)
		}
	}
	if got := len(s.downsample(1000)); got != 100 {
		t.Fatalf("oversampling should return original length, got %d", got)
	}
}

func TestSparklineLength(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 50; i++ {
		s.Add(float64(i) / 50)
	}
	line := s.Sparkline(20)
	if got := len([]rune(line)); got != 20 {
		t.Fatalf("sparkline rune length = %d, want 20", got)
	}
}
