package vantage

import (
	"testing"
	"time"

	"arq/internal/obsv"
)

// TestRuleServerQueueDropsOldest pins the bounded-intake shedding
// white-box: a rule server whose learners are never started (so nothing
// drains) accepts exactly QueueCap observations and sheds one — the
// oldest — per push beyond that, each shed bumping vantage.learn.dropped.
func TestRuleServerQueueDropsOldest(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.QueueCap = 4
	r := newRuleServer(cfg) // start() not called: queue fills and stays full
	before := obsv.GetCounter("vantage.learn.dropped").Value()
	for i := 0; i < cfg.QueueCap+3; i++ {
		r.observe(0, 1+i)
	}
	if got := obsv.GetCounter("vantage.learn.dropped").Value() - before; got != 3 {
		t.Fatalf("pushed cap+3 into an undrained queue, dropped %d", got)
	}
	// The survivors are the newest QueueCap observations, in order.
	for i := 3; i < cfg.QueueCap+3; i++ {
		obs, ok := r.queue.TryPop()
		if !ok || obs.via != 1+i {
			t.Fatalf("survivor %d: got %+v ok=%v", i, obs, ok)
		}
	}
}

// TestRuleServerQueuedLearns runs the full live path — star topology,
// learner behind a bounded queue — and checks the hub still learns the
// routing rule from asynchronously absorbed hits.
func TestRuleServerQueuedLearns(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.QueueCap = 256
	center, leaves := star(t, 3, Options{Rules: &cfg}, nil)
	origin, sharer := leaves[0], leaves[1]
	sharer.Share("topic-009 keywords data.bin", 64)
	for i := 0; i < 2; i++ {
		if _, err := origin.Search("topic-009 keywords", 4, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Learning is asynchronous behind the queue: poll for the rule.
	deadline := time.Now().Add(2 * time.Second)
	for center.RuleCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hub learned no rule from queued observations")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRuleServerCloseDrainsQueue checks close() absorbs queued
// observations before stopping: observations pushed while learners run
// are all learned by the time close returns.
func TestRuleServerCloseDrainsQueue(t *testing.T) {
	cfg := DefaultRuleConfig()
	cfg.QueueCap = 1024
	cfg.DecayEvery = 0 // no decay: supports count observations exactly
	r := newRuleServer(cfg)
	r.start()
	const obs = 500
	for i := 0; i < obs; i++ {
		r.observe(0, 1) // same pair: support accumulates
	}
	r.close()
	if got := r.learner.Publish().Support(connHost(0), connHost(1)); got != obs {
		t.Fatalf("close left support %v, want %d (queue not drained)", got, obs)
	}
}
