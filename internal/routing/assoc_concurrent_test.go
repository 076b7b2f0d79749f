package routing

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"arq/internal/core"
	"arq/internal/peer"
	"arq/internal/stats"
)

// TestAssocConcurrentReaders drives the write plane (ObserveHit,
// AdoptShortcut) from one goroutine while several readers hammer the
// serve plane (Route, Consequents, RuleCount). Under -race this pins the
// learn/serve split's memory contract for the deferred publish
// policy; the assertions check that every routing decision is
// internally consistent regardless of which snapshot it was served from.
func TestAssocConcurrentReaders(t *testing.T) {
	policies := map[string]core.PublishPolicy{
		"epoch": core.PublishEpoch,
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultAssocConfig()
			cfg.Publish = policy
			cfg.PublishEvery = 16
			cfg.DecayEvery = 32
			a := NewAssoc(cfg)

			const nodes = 10
			nbrs := make([]int32, nodes)
			for i := range nbrs {
				nbrs[i] = int32(i)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						from := i%(nodes+1) - 1 // NoUpstream through nodes-1
						out := a.Route(0, from, peer.Meta{}, nbrs)
						if len(out) > len(nbrs) {
							t.Errorf("Route returned %d of %d neighbors", len(out), len(nbrs))
							return
						}
						seen := make(map[int32]bool, len(out))
						for _, v := range out {
							if v < 0 || int(v) >= nodes || int(v) == from || seen[v] {
								t.Errorf("Route(from=%d) = %v: bad neighbor %d", from, out, v)
								return
							}
							seen[v] = true
						}
						if cs := a.Consequents(from); len(cs) > 0 && a.RuleCount() == 0 {
							// Consequents and RuleCount may come from
							// different snapshots; both must be
							// individually well-formed.
							for _, c := range cs {
								if c < 0 || int(c) >= nodes {
									t.Errorf("Consequents(%d) = %v", from, cs)
									return
								}
							}
						}
					}
				}(r)
			}

			rng := stats.NewRNG(7)
			for i := 0; i < 30000; i++ {
				u := rng.Intn(nodes)
				from := rng.Intn(nodes+1) - 1
				via := rng.Intn(nodes)
				a.ObserveHit(u, from, peer.Meta{}, via)
				if i%1024 == 1023 {
					v, w := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
					if v != w {
						a.AdoptShortcut(v, w)
					}
				}
			}
			close(done)
			wg.Wait()
		})
	}
}

// TestAssocEpochPublishStaleness pins the epoch policy's contract: the
// serve plane keeps routing on the old snapshot until the observation
// budget fills, then one publish makes the learned rules visible.
func TestAssocEpochPublishStaleness(t *testing.T) {
	cfg := AssocConfig{TopK: 2, Threshold: 2, Decay: 0.5, DecayEvery: 1 << 20,
		Publish: core.PublishEpoch, PublishEvery: 4}
	a := NewAssoc(cfg)
	nbrs := []int32{0, 1, 2}

	a.ObserveHit(9, 0, peer.Meta{}, 1)
	a.ObserveHit(9, 0, peer.Meta{}, 1)
	// The learner has a {0}->{1} rule at support 2, but nothing is
	// published yet: the router still floods.
	if got := a.Route(9, 0, peer.Meta{}, nbrs); len(got) != 2 {
		t.Fatalf("pre-publish Route = %v, want flood to [1 2]", got)
	}
	if a.RuleCount() != 0 || a.learn.Version() != 0 {
		t.Fatalf("pre-publish rules=%d version=%d", a.RuleCount(), a.learn.Version())
	}
	a.ObserveHit(9, 0, peer.Meta{}, 1)
	a.ObserveHit(9, 0, peer.Meta{}, 1) // 4th observation fills the epoch
	if a.learn.Version() != 1 || a.RuleCount() != 1 {
		t.Fatalf("post-epoch rules=%d version=%d", a.RuleCount(), a.learn.Version())
	}
	if got := a.Route(9, 0, peer.Meta{}, nbrs); len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-publish Route = %v, want [1]", got)
	}
}

// TestAssocFloorBoundsMemory pins the configurable eviction floor: a
// floor near the threshold evicts slowly-reinforced pairs before they can
// accumulate rule-level support, while the default floor lets them build.
func TestAssocFloorBoundsMemory(t *testing.T) {
	route := func(floor float64) []int32 {
		a := NewAssoc(AssocConfig{TopK: 1, Threshold: 2, Decay: 0.9, DecayEvery: 1, Floor: floor})
		for i := 0; i < 3; i++ {
			a.ObserveHit(9, 0, peer.Meta{}, 1)
		}
		return a.Route(9, 0, peer.Meta{}, []int32{0, 1, 2})
	}
	// Default floor: supports 0.9, 1.71, 2.44 — a rule forms.
	if got := route(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("default floor Route = %v, want [1]", got)
	}
	// Floor 1.8: every decayed support (0.9) is evicted before the next
	// hit arrives, so no rule ever forms and the router floods.
	if got := route(1.8); len(got) != 2 {
		t.Fatalf("high floor Route = %v, want flood to [1 2]", got)
	}
	// Invalid floors (>= threshold) fall back to a sane default instead
	// of silently evicting active rules.
	if got := route(5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("clamped floor Route = %v, want [1]", got)
	}
}

// TestAssocAdoptShortcutVisibleToConcurrentReaders checks that a shortcut
// adoption publishes immediately even under a deferred policy: readers
// see the adopted consequent without waiting for the next epoch.
func TestAssocAdoptShortcutVisibleToConcurrentReaders(t *testing.T) {
	cfg := DefaultAssocConfig()
	cfg.Publish = core.PublishEpoch
	cfg.PublishEvery = 8
	a := NewAssoc(cfg)
	for i := 0; i < 8; i++ { // exactly one epoch: {0}->{1} published
		a.ObserveHit(9, 0, peer.Meta{}, 1)
	}
	if a.RuleCount() != 1 {
		t.Fatalf("rules after epoch = %d", a.RuleCount())
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Consequents(0)
		}()
	}
	a.AdoptShortcut(1, 2)
	wg.Wait()
	cs := a.Consequents(0)
	if fmt.Sprint(cs) != "[2 1]" {
		t.Fatalf("Consequents after adoption = %v, want [2 1]", cs)
	}
}

// TestAssocLearnerCallsSerialize drives every call that reads or writes
// the learner's index — ObserveHit, PublishNow, Snapshot, Restore — from
// separate goroutines on one default-config router. All of them must go
// through the core.Learner mutex: under -race a path that reaches the
// index without it is reported, a lost publish leaves the version short of
// the publishes the forced calls alone make, and a publish that interleaved
// with an observation leaves the served rules out of the order a rebuild
// gives.
func TestAssocLearnerCallsSerialize(t *testing.T) {
	a := NewAssoc(DefaultAssocConfig())
	const observes, publishes, restores = 4000, 500, 100
	var wg sync.WaitGroup
	run := func(n int, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f(i)
			}
		}()
	}
	run(observes, func(i int) { a.ObserveHit(0, i%5-1, peer.Meta{}, 1+i%7) })
	run(publishes, func(int) { a.PublishNow() })
	run(restores, func(int) { a.Restore(a.Snapshot(), 0.5) })
	wg.Wait()
	// PublishNow publishes once, Snapshot and Restore once each; an
	// observation publishes only when it moves a rule.
	if got := a.learn.Version(); got < publishes+2*restores {
		t.Fatalf("snapshot version %d after %d forced publishes", got, publishes+2*restores)
	}
	served := a.learn.View()
	if got, want := ruleKeys(served), ruleKeys(a.Snapshot()); !slices.Equal(got, want) {
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

// TestAssocRoutesInRebuildOrderUnderLearning runs RouteAppend on several
// goroutines against one writer feeding ObserveHit and another forcing
// Snapshot and PublishNow, all on one router; under -race it pins the
// serve plane's memory contract for the default publish policy. The
// writer steps refAssoc, the pre-engine reference that sorts every
// decision from its own counts, beside the router and records, for every
// antecedent, the decision a rebuild gives after each step. A reader's
// decision must equal one of those recorded for the steps its call
// overlapped: no reader may see a run out of the order a rebuild gives.
func TestAssocRoutesInRebuildOrderUnderLearning(t *testing.T) {
	const nodes, steps = 8, 3000
	cfg := DefaultAssocConfig()
	a, ref := NewAssoc(cfg), newRefAssoc(cfg)
	nbrs := make([]int32, nodes)
	for i := range nbrs {
		nbrs[i] = int32(i)
	}
	// want[s][from+1] is the decision after step s; step is the last s
	// whose row is written.
	want := make([][nodes + 1][]int32, steps+1)
	record := func(s int) {
		for from := -1; from < nodes; from++ {
			d := ref.route(from, nbrs)
			if d == nil {
				d = Flood{}.Route(0, from, peer.Meta{}, nbrs)
			}
			want[s][from+1] = d
		}
	}
	record(0)
	var step atomic.Int64
	var done atomic.Bool

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]int32, 0, nodes)
			for i := r; !done.Load(); i++ {
				from := i%(nodes+1) - 1
				s0 := int(step.Load())
				buf = a.RouteAppend(buf[:0], 0, from, peer.Meta{}, nbrs)
				// The snapshot read may be one step ahead of the row count:
				// wait for that row, or for the writer to finish.
				s1 := int(step.Load())
				for int(step.Load()) == s1 && !done.Load() {
					runtime.Gosched()
				}
				s2 := min(s1+1, int(step.Load()))
				if !slices.ContainsFunc(want[s0:s2+1], func(row [nodes + 1][]int32) bool {
					return slices.Equal(row[from+1], buf)
				}) {
					t.Errorf("RouteAppend(from=%d) = %v, which no rebuild in steps %d..%d gives", from, buf, s0, s2)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			a.Snapshot()
			a.PublishNow()
			runtime.Gosched()
		}
	}()

	rng := stats.NewRNG(11)
	for s := 1; s <= steps; s++ {
		// Three antecedents over eight consequents: long runs whose order
		// changes often between decay steps.
		u, from, via := rng.Intn(nodes), rng.Intn(3)-1, rng.Intn(nodes)
		ref.observeHit(u, from, via)
		record(s)
		a.ObserveHit(u, from, peer.Meta{}, via)
		step.Store(int64(s))
	}
	done.Store(true)
	wg.Wait()
}
