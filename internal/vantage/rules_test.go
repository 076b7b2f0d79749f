package vantage

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// star builds a hub servent with opts and n leaves connected to it.
func star(t *testing.T, n int, opts Options, leafOpts func(i int) Options) (*Servent, []*Servent) {
	t.Helper()
	center, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(center.Close)
	leaves := make([]*Servent, n)
	for i := range leaves {
		var lo Options
		if leafOpts != nil {
			lo = leafOpts(i)
		}
		leaves[i], err = Listen("127.0.0.1:0", lo)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaves[i].Close)
		if err := leaves[i].ConnectTo(center.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for center.NumConns() < n {
		if time.Now().After(deadline) {
			t.Fatalf("center has %d of %d connections", center.NumConns(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return center, leaves
}

// TestRulesStopFloodingLearnedUpstreams pins the live learn/serve loop on
// a star: once two hits teach the hub that queries from the origin leaf
// are answered via the sharing leaf, it stops forwarding them to the
// empty leaf — observable as the empty leaf's capture going quiet.
func TestRulesStopFloodingLearnedUpstreams(t *testing.T) {
	quietCap := NewCapture()
	center, leaves := star(t, 3, Options{Rules: true}, func(i int) Options {
		if i == 2 {
			return Options{Capture: quietCap}
		}
		return Options{}
	})
	origin, sharer := leaves[0], leaves[1]
	sharer.Share("topic-005 keywords data.bin", 64)

	search := func() {
		t.Helper()
		if _, err := origin.Search("topic-005 keywords", 4, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Two hits routed back through the hub cross the threshold (support
	// 2); the hub observes each hit before forwarding it to the origin,
	// so by the time a search returns, its learning is published.
	search()
	search()
	if center.RuleCount() == 0 {
		t.Fatal("hub learned no rule after two routed hits")
	}
	// The first two queries flooded to the quiet leaf; wait for them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if qs, _ := quietCap.Snapshot(); len(qs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			qs, _ := quietCap.Snapshot()
			t.Fatalf("quiet leaf saw %d of 2 flooded queries", len(qs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Covered queries now go only to the learned connection.
	search()
	search()
	search()
	time.Sleep(100 * time.Millisecond) // a stray forward would land well within this
	if qs, _ := quietCap.Snapshot(); len(qs) != 2 {
		t.Fatalf("quiet leaf saw %d queries, want 2 (rule-routed queries leaked)", len(qs))
	}
}

// TestRulesConcurrentSearches hammers a rule-serving hub from several
// goroutines at once: the serve plane reads snapshots lock-free on every
// forwarded query while the learn plane absorbs the returning hits. Run
// under -race this pins the servent-level memory contract.
func TestRulesConcurrentSearches(t *testing.T) {
	center, leaves := star(t, 4, Options{Rules: true}, nil)
	// Every sharer holds every topic: connection-level rules are
	// content-blind, so this keeps each search answerable no matter which
	// learned consequents the hub narrows it to.
	for _, l := range leaves[1:] {
		for topic := 1; topic <= 3; topic++ {
			l.Share(fmt.Sprintf("topic-%03d keywords file.dat", topic), 32)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				topic := fmt.Sprintf("topic-%03d keywords", 1+(g+j)%3)
				if _, err := leaves[0].Search(topic, 4, 2*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if center.RuleCount() == 0 {
		t.Fatal("hub learned nothing from the concurrent workload")
	}
}

// Top-k is taken among the connections still open: a learned consequent
// absent from targets (closed since it was learned) does not use up a
// slot, so the query still goes to ruleTopK peers.
func TestRuleServerFilterSkipsClosedConsequents(t *testing.T) {
	r := newRuleServer()
	for via, hits := range map[int]int{1: 6, 2: 4, 3: 2} {
		for i := 0; i < hits; i++ {
			r.observe(0, via)
		}
	}
	// Connection 1, the strongest consequent, has closed.
	targets := []*peerConn{{id: 4}, {id: 3}, {id: 2}}
	got := r.filter(0, targets)
	if len(got) != 2 || got[0].id != 2 || got[1].id != 3 {
		ids := make([]int, len(got))
		for i, c := range got {
			ids[i] = c.id
		}
		t.Fatalf("filter = conns %v, want the 2nd and 3rd strongest [2 3]", ids)
	}
}

// RuleCount reports the number of rules in the current published
// snapshot.
func (s *Servent) RuleCount() int {
	if s.rules == nil {
		return 0
	}
	return s.rules.learner.View().Len()
}
