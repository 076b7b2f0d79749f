package vantage

import (
	"fmt"
	"testing"
	"time"

	"arq/internal/core"
	"arq/internal/trace"
	"arq/internal/wire"
)

// chain starts n servents connected in a line and returns them. The
// middle servents relay; caller closes them.
func chain(t *testing.T, n int, captureAt int) ([]*Servent, *Capture) {
	t.Helper()
	var cap *Capture
	servents := make([]*Servent, n)
	for i := range servents {
		opts := Options{}
		if i == captureAt {
			cap = NewCapture()
			opts.Capture = cap
		}
		s, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		servents[i] = s
		t.Cleanup(s.Close)
	}
	for i := 1; i < n; i++ {
		if err := servents[i-1].ConnectTo(servents[i].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for all connections to register.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok := true
		for i, s := range servents {
			want := 2
			if i == 0 || i == n-1 {
				want = 1
			}
			if s.NumConns() < want {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connections did not establish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return servents, cap
}

func TestSearchAcrossChain(t *testing.T) {
	ss, _ := chain(t, 3, -1)
	ss[2].Share("topic-007 keywords archive.dat", 1024)
	hit, err := ss[0].Search("topic-007 keywords", 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Results) != 1 || hit.Results[0].FileName != "topic-007 keywords archive.dat" {
		t.Fatalf("hit = %+v", hit)
	}
}

func TestTTLStopsPropagation(t *testing.T) {
	ss, _ := chain(t, 4, -1)
	ss[3].Share("topic-001 keywords far.dat", 1)
	// TTL 2: reaches node 1 (hop 1) and node 2 (hop 2), never node 3.
	if _, err := ss[0].Search("topic-001 keywords", 2, 300*time.Millisecond); err == nil {
		t.Fatal("content beyond TTL was found")
	}
	// TTL 3 reaches it.
	if _, err := ss[0].Search("topic-001 keywords", 3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNoMatchTimesOut(t *testing.T) {
	ss, _ := chain(t, 2, -1)
	ss[1].Share("something else entirely", 1)
	if _, err := ss[0].Search("topic-404 keywords", 7, 200*time.Millisecond); err == nil {
		t.Fatal("miss reported a hit")
	}
}

func TestMatchLibrarySemantics(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Share("Free Software Compilation.tar", 1)
	s.Share("holiday photos.zip", 2)
	if got := matchLibrary(s.index, s.library, "free software"); len(got) != 1 || got[0].FileIndex != 1 {
		t.Fatalf("got %+v", got)
	}
	if got := matchLibrary(s.index, s.library, "software photos"); len(got) != 0 {
		t.Fatalf("conjunctive match failed: %+v", got)
	}
	if got := matchLibrary(s.index, s.library, ""); len(got) != 0 {
		t.Fatalf("empty search matched: %+v", got)
	}
}

func TestCaptureRecordsRelayedTraffic(t *testing.T) {
	ss, cap := chain(t, 3, 1)
	ss[2].Share("topic-042 keywords data.bin", 99)
	for i := 0; i < 5; i++ {
		if _, err := ss[0].Search("topic-042 keywords", 7, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	qs, rs := cap.Snapshot()
	if len(qs) != 5 {
		t.Fatalf("captured %d queries, want 5", len(qs))
	}
	if len(rs) != 5 {
		t.Fatalf("captured %d replies, want 5", len(rs))
	}
	for _, q := range qs {
		if q.Interest != 42 {
			t.Fatalf("interest = %d, want 42 (from query text)", q.Interest)
		}
		if q.Source == trace.NoHost {
			t.Fatal("query without source")
		}
	}
	pairs := cap.Pairs()
	if len(pairs) != 5 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// All five pairs share (source, replier): a rule must be minable.
	rules := core.GenerateRuleSet(pairs, 5)
	if rules.Len() != 1 {
		t.Fatalf("rules mined from live capture = %d, want 1", rules.Len())
	}
	rules.Range(func(k core.PairKey, support float64) bool {
		if got := rules.Consequents(k.Source(), 1); support != 5 || len(got) != 1 || got[0] != k.Replier() {
			t.Fatalf("support %v, consequents = %v", support, got)
		}
		return true
	})
}

func TestDuplicateSuppressionInRelay(t *testing.T) {
	// A triangle: A connected to B and C, B connected to C. A's query
	// reaches B twice (direct and via C); B must relay it only once.
	a, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	capB := NewCapture()
	b, err := Listen("127.0.0.1:0", Options{Capture: capB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, pair := range [][2]*Servent{{a, b}, {a, c}, {b, c}} {
		if err := pair[0].ConnectTo(pair[1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.NumConns() < 2 || b.NumConns() < 2 || c.NumConns() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("triangle did not establish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Share("topic-009 keywords file", 7)
	if _, err := a.Search("topic-009 keywords", 7, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the duplicate copy time to arrive, then confirm B logged the
	// query exactly once.
	time.Sleep(100 * time.Millisecond)
	qs, _ := capB.Snapshot()
	if len(qs) != 1 {
		t.Fatalf("B recorded %d copies of the query, want 1", len(qs))
	}
}

func TestCompactGUIDPreservesCollisions(t *testing.T) {
	var g1, g2 wire.GUID
	copy(g1[:], "identical-guid!!")
	copy(g2[:], "identical-guid!!")
	if compactGUID(g1) != compactGUID(g2) {
		t.Fatal("equal wire GUIDs must compact equally")
	}
	g2[3] ^= 0xFF
	if compactGUID(g1) == compactGUID(g2) {
		t.Fatal("distinct wire GUIDs collided (possible but should not in tests)")
	}
}

func TestInterestOf(t *testing.T) {
	if interestOf("topic-042 keywords") != 42 {
		t.Fatal("topic parse failed")
	}
	if interestOf("topic-xyz") == interestOf("other words") &&
		fmt.Sprint(interestOf("topic-xyz")) == fmt.Sprint(interestOf("other words")) {
		t.Log("hash bucket collision (acceptable)")
	}
	a, b := interestOf("same string"), interestOf("same string")
	if a != b {
		t.Fatal("hash bucketing not stable")
	}
}
