package vantage

import (
	"sync"
	"testing"

	"arq/internal/core"
	"arq/internal/obsv"
)

// TestRuleServerCloseExactUnderConcurrentProducers pins the learn-plane
// accounting contract: with concurrent producers hammering a small
// bounded intake, every observation is either absorbed into the index or
// counted in vantage.learn.dropped — none vanish — and close() leaves
// the queue fully drained. Run with -race in CI.
func TestRuleServerCloseExactUnderConcurrentProducers(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.QueueCap = 32
	cfg.DecayEvery = 0 // no decay: index support counts absorptions exactly
	cfg.Publish = core.PublishEpoch
	r := newRuleServer(cfg)
	r.start()

	before := obsv.GetCounter("vantage.learn.dropped").Value()
	const producers, perProducer = 8, 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.observe(p, producers+i%17)
			}
		}(p)
	}
	wg.Wait()
	r.close()

	dropped := obsv.GetCounter("vantage.learn.dropped").Value() - before
	var absorbed float64
	r.learner.Update(func(idx *core.PairIndex) {
		idx.Range(func(_ core.PairKey, v float64) bool {
			absorbed += v
			return true
		})
	})
	if total := int64(absorbed) + dropped; total != producers*perProducer {
		t.Fatalf("absorbed %v + dropped %d = %d, want %d observations accounted for",
			absorbed, dropped, total, producers*perProducer)
	}
	if n := r.queue.Len(); n != 0 {
		t.Fatalf("close left %d observations in the intake queue", n)
	}
}

// A snapshot staler than StaleObs degrades rule serving to the full
// target list (counted by vantage.rule_stale_flood); a republish
// restores narrowed forwarding.
func TestRuleServerStaleSnapshotFloods(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.TopK = 1
	cfg.StaleObs = 8
	cfg.Publish = core.PublishEpoch
	cfg.PublishEvery = 1 << 30 // publication stalled: only explicit publishes
	r := newRuleServer(cfg)
	targets := []*peerConn{{id: 1}, {id: 2}, {id: 3}}

	for i := 0; i < 4; i++ {
		r.learn(0, 1)
	}
	r.learner.Publish()
	if got := r.filter(0, targets); len(got) != 1 || got[0].id != 1 {
		t.Fatalf("fresh filter = %d conns, want the learned [1]", len(got))
	}

	before := obsv.GetCounter("vantage.rule_stale_flood").Value()
	for i := 0; i < 8; i++ {
		r.learn(0, 1)
	}
	if got := r.filter(0, targets); len(got) != 3 {
		t.Fatalf("stale filter = %d conns, want the full 3", len(got))
	}
	if d := obsv.GetCounter("vantage.rule_stale_flood").Value() - before; d != 1 {
		t.Fatalf("rule_stale_flood delta = %d, want 1", d)
	}

	r.learner.Publish()
	if got := r.filter(0, targets); len(got) != 1 || got[0].id != 1 {
		t.Fatalf("post-republish filter = %d conns, want [1]", len(got))
	}
}

// Shedding degrades serving even when the staleness bounds are not
// breached: a snapshot published before the learn plane dropped
// observations is mined from an incomplete stream, so filter floods
// until the next publish.
func TestRuleServerShedDegradesUntilRepublish(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.TopK = 1
	cfg.StaleObs = 1 << 30 // staleness alone never fires here
	cfg.QueueCap = 2       // start() not called: queue fills and sheds
	cfg.Publish = core.PublishEpoch
	cfg.PublishEvery = 1 << 30
	r := newRuleServer(cfg)
	targets := []*peerConn{{id: 1}, {id: 2}, {id: 3}}

	for i := 0; i < 4; i++ {
		r.learn(0, 1) // bypass the queue: learn synchronously
	}
	r.learner.Publish()
	if got := r.filter(0, targets); len(got) != 1 {
		t.Fatalf("fresh filter = %d conns, want 1", len(got))
	}

	// Overflow the undrained intake: the third observe sheds.
	for i := 0; i < 3; i++ {
		r.observe(0, 1)
	}
	if got := r.filter(0, targets); len(got) != 3 {
		t.Fatalf("post-shed filter = %d conns, want the full 3", len(got))
	}
	r.learner.Publish()
	if got := r.filter(0, targets); len(got) != 1 {
		t.Fatalf("post-republish filter = %d conns, want 1", len(got))
	}
}

// Top-k is taken among the connections still open: a learned consequent
// absent from targets (closed since it was learned) does not use up a
// slot, so the query still goes to TopK peers.
func TestRuleServerFilterSkipsClosedConsequents(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.TopK = 2
	r := newRuleServer(cfg)
	for via, hits := range map[int]int{1: 6, 2: 4, 3: 2} {
		for i := 0; i < hits; i++ {
			r.learn(0, via)
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
