package vantage

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"arq/internal/core"
	"arq/internal/trace"
	"arq/internal/transport"
)

// TestCheckpointWarmStartAcrossRestart runs the full crash-recovery
// loop on live sockets: a rule-routing hub learns from routed hits,
// checkpoints, and is torn down; a new hub on the same checkpoint
// directory re-accepts the peers on DIFFERENT connection ids,
// warm-starts, and must resume rule-narrowed forwarding immediately —
// proving the conn -> node -> conn remap carried the rule across the
// restart.
func TestCheckpointWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	hubOpts := func() Options {
		return Options{
			Rules:      true,
			Checkpoint: &CheckpointConfig{Dir: dir, EveryVersions: 1, Discount: 0.5},
			Net:        &transport.Options{NodeID: 100},
		}
	}
	hub, err := Listen("127.0.0.1:0", hubOpts())
	if err != nil {
		t.Fatal(err)
	}

	quietCap := NewCapture()
	origin := listenLeaf(t, Options{Net: &transport.Options{NodeID: 1}})
	sharer := listenLeaf(t, Options{Net: &transport.Options{NodeID: 2}})
	quiet := listenLeaf(t, Options{Capture: quietCap, Net: &transport.Options{NodeID: 3}})
	sharer.Share("topic-005 keywords data.bin", 64)

	// Connect in origin, sharer, quiet order: conn ids 0, 1, 2. The hub
	// registers a connection after the dial returns, so each one waits
	// for its registration before the next dials.
	for i, l := range []*Servent{origin, sharer, quiet} {
		if err := l.ConnectTo(hub.Addr()); err != nil {
			t.Fatal(err)
		}
		waitConns(t, hub, i+1)
	}

	// Six routed hits: support 6 for {origin conn} -> {sharer conn},
	// comfortably above threshold 2 even after the 0.5 restore discount.
	for i := 0; i < 6; i++ {
		if _, err := origin.Search("topic-005 keywords", 4, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The publish cadence (EveryVersions 1) must produce a background
	// checkpoint without any shutdown.
	ckptPath := filepath.Join(dir, checkpointFile)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written on the publish cadence")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash the hub (Close writes the final checkpoint first).
	hub.Close()

	// Restart on the same checkpoint dir; peers reconnect in a DIFFERENT
	// order, so the restored rule must land on fresh conn ids: quiet=0,
	// origin=1, sharer=2.
	hub2, err := Listen("127.0.0.1:0", hubOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub2.Close)
	for i, l := range []*Servent{quiet, origin, sharer} {
		if err := l.ConnectTo(hub2.Addr()); err != nil {
			t.Fatal(err)
		}
		waitConns(t, hub2, i+1)
	}

	n, err := hub2.WarmStart()
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if n != 1 {
		t.Fatalf("WarmStart restored %d rules, want 1", n)
	}
	if hub2.RuleCount() != 1 {
		t.Fatalf("published rule count after warm start = %d, want 1", hub2.RuleCount())
	}
	if got := hub2.rules.learner.View().Support(trace.HostOf(1), trace.HostOf(2)); got != 3 {
		t.Fatalf("restored support on remapped conns = %v, want 3 (6 discounted by 0.5)", got)
	}

	// The warm-started hub narrows immediately: new searches from the
	// origin must reach only the sharer, never the quiet leaf.
	preQuiet := quietQueries(quietCap)
	for i := 0; i < 3; i++ {
		if _, err := origin.Search("topic-005 keywords", 4, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // a stray flood would land well within this
	if got := quietQueries(quietCap); got != preQuiet {
		t.Fatalf("quiet leaf saw %d new queries after warm start, want 0", got-preQuiet)
	}
}

// TestWarmStartWithoutCheckpointIsColdStart pins the missing-file
// contract: zero rules restored, no error.
func TestWarmStartWithoutCheckpointIsColdStart(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{
		Rules:      true,
		Checkpoint: &CheckpointConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	n, err := s.WarmStart()
	if err != nil || n != 0 {
		t.Fatalf("WarmStart on empty dir = (%d, %v), want (0, nil)", n, err)
	}
}

// quietQueries counts the queries the quiet leaf's capture has seen.
func quietQueries(c *Capture) int {
	qs, _ := c.Snapshot()
	return len(qs)
}

func listenLeaf(t *testing.T, opts Options) *Servent {
	t.Helper()
	s, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitConns(t *testing.T, s *Servent, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.NumConns() < n {
		if time.Now().After(deadline) {
			t.Fatalf("servent has %d of %d connections", s.NumConns(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWarmStartConcurrentWithObserve restores a checkpoint while routed
// hits are still arriving. Both sides reach the learner's index, so both
// must hold its mutex: under -race an unguarded restore is reported, a
// lost publish leaves the version short of one per restore, and a restore
// that interleaved with an observation leaves the served rules out of the
// order a rebuild gives.
func TestWarmStartConcurrentWithObserve(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{
		Rules:      true,
		Checkpoint: &CheckpointConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	const observes, restores = 4000, 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < observes; i++ {
			s.rules.observe(0, 1+i%3)
		}
	}()
	for i := 0; i < restores; i++ {
		if _, err := s.WarmStart(); err != nil {
			t.Fatalf("WarmStart: %v", err)
		}
	}
	<-done
	// The checkpoint published once and every restore once more; an
	// observation publishes only when it moves a rule.
	if got := s.rules.learner.Version(); got < 1+restores {
		t.Fatalf("snapshot version %d after %d restores", got, restores)
	}
	served := s.rules.learner.View()
	if got, want := ruleKeys(served), ruleKeys(s.rules.learner.Publish()); !slices.Equal(got, want) {
		t.Fatalf("served rules %v, a rebuild gives %v", got, want)
	}
}

// ruleKeys lists a snapshot's rules in table order, without supports.
func ruleKeys(s *core.RuleSnapshot) []core.PairKey {
	var keys []core.PairKey
	s.Range(func(k core.PairKey, _ float64) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}
