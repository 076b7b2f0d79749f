package core

import (
	"sync"
	"testing"
	"testing/quick"

	"arq/internal/trace"
)

// observe mimics one learner step: fold the pair in, then let the
// publisher apply its policy.
// NewPublisher returns a publisher serving the empty version-0 snapshot;
// outside tests a Publisher is a field of a Learner, initialised in place.
func NewPublisher(cfg PublisherConfig) *Publisher {
	p := new(Publisher)
	p.init(&cfg)
	return p
}

// Version returns the sequence number of the served snapshot.
func (p *Publisher) Version() uint64 { return p.view().version }

// hit adds one observation of the pair and returns its new support.
func hit(idx *PairIndex, src, rep trace.HostID) float64 {
	_, now := idx.addPair(src, rep)
	return now
}

// covers and matches make a snapshot a ruleView.
func (s *RuleSnapshot) covers(src trace.HostID) bool { return len(s.Run(src)) > 0 }

func (s *RuleSnapshot) matches(src, rep trace.HostID) bool { return s.Support(src, rep) > 0 }

func observe(idx *PairIndex, p *Publisher, src, rep trace.HostID) {
	idx.addPair(src, rep)
	p.observe(idx)
}

// publisherOver returns a publisher for a test that plays the learner
// over idx: like a Learner's, its MinSupport defaults to the index's
// activation threshold.
func publisherOver(idx *PairIndex, cfg PublisherConfig) *Publisher {
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = idx.threshold
	}
	return NewPublisher(cfg)
}

func TestPublishSyncTracksEveryObservation(t *testing.T) {
	idx := newDecayIndex(2)
	p := publisherOver(idx, PublisherConfig{Policy: PublishSync})
	if v := p.view(); v.Version() != 0 || v.Len() != 0 {
		t.Fatalf("initial view = v%d len %d", v.Version(), v.Len())
	}
	observe(idx, p, 1, 2)
	if v := p.view(); v.Version() != 1 || v.Len() != 0 {
		t.Fatalf("after 1 obs: v%d len %d (support below threshold)", v.Version(), v.Len())
	}
	observe(idx, p, 1, 2)
	v := p.view()
	if v.Version() != 2 || v.Len() != 1 {
		t.Fatalf("after 2 obs: v%d len %d", v.Version(), v.Len())
	}
	if !v.covers(1) || !v.matches(1, 2) || v.Support(1, 2) != 2 {
		t.Fatalf("snapshot misses the {1}->{2} rule: %+v", v)
	}
	if v.covers(2) || v.matches(2, 1) || v.Support(1, 3) != 0 {
		t.Fatal("snapshot reports rules that were never mined")
	}
}

func TestPublishedSnapshotIsImmutable(t *testing.T) {
	idx := newDecayIndex(2)
	p := publisherOver(idx, PublisherConfig{Policy: PublishSync})
	observe(idx, p, 1, 2)
	observe(idx, p, 1, 2)
	old := p.view()
	for i := 0; i < 5; i++ {
		observe(idx, p, 1, 3)
		observe(idx, p, 4, 5)
	}
	if old.Len() != 1 || old.Support(1, 2) != 2 || old.covers(4) {
		t.Fatalf("earlier snapshot changed under later publishes: %+v", old)
	}
	if now := p.view(); now.Len() != 3 {
		t.Fatalf("current snapshot len = %d, want 3", now.Len())
	}
}

func TestPublishEpochBoundsStaleness(t *testing.T) {
	idx := newDecayIndex(1)
	p := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 4})
	for i := 0; i < 3; i++ {
		observe(idx, p, 1, trace.HostID(10+i))
	}
	if got := p.Version(); got != 0 {
		t.Fatalf("published before the epoch filled: v%d", got)
	}
	observe(idx, p, 1, 13)
	v := p.view()
	if v.Version() != 1 || v.Len() != 4 {
		t.Fatalf("after epoch: v%d len %d", v.Version(), v.Len())
	}
	// The next epoch starts counting from zero again.
	observe(idx, p, 1, 14)
	if got := p.Version(); got != 1 {
		t.Fatalf("epoch counter not reset: v%d", got)
	}
}

func TestSnapshotConsequentOrdering(t *testing.T) {
	idx := newDecayIndex(1)
	p := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
	idx.Set(1, 7, 5)
	idx.Set(1, 3, 5) // ties break on ascending HostID
	idx.Set(1, 9, 8)
	idx.Set(1, 4, 0.5) // below MinSupport: excluded
	p.publish(idx)
	got := p.view().Consequents(1, 0)
	want := []trace.HostID{9, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Consequents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Consequents = %v, want %v", got, want)
		}
	}
	if top := p.view().Consequents(1, 2); len(top) != 2 || top[0] != 9 || top[1] != 3 {
		t.Fatalf("Consequents(k=2) = %v", top)
	}
}

func TestPublisherExplicitMinSupport(t *testing.T) {
	idx := NewPairIndex() // windowed mode: no intrinsic threshold
	p := publisherOver(idx, PublisherConfig{MinSupport: 3})
	idx.AddBlock(trace.Block{
		{Source: 1, Replier: 2}, {Source: 1, Replier: 2}, {Source: 1, Replier: 2},
		{Source: 1, Replier: 5},
	})
	v := p.publish(idx)
	if v.Len() != 1 || v.Support(1, 2) != 3 || v.matches(1, 5) {
		t.Fatalf("snapshot = len %d, support(1,2)=%v", v.Len(), v.Support(1, 2))
	}
}

// TestPublisherConcurrentReaders drives one writer (observe + publish)
// against many lock-free readers; run under -race this pins the
// write-plane/read-plane memory contract.
func TestPublisherConcurrentReaders(t *testing.T) {
	idx := newDecayIndex(2)
	p := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 8})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := p.view()
				if v.Version() < last {
					t.Error("snapshot version went backwards")
					return
				}
				last = v.Version()
				v.Range(func(k PairKey, sup float64) bool {
					if sup < 2 {
						t.Errorf("snapshot holds sub-threshold rule %v=%v", k, sup)
						return false
					}
					return true
				})
				v.Consequents(1, 2)
				v.covers(3)
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		observe(idx, p, trace.HostID(1+i%5), trace.HostID(1+(i*7)%11))
		if i%97 == 0 {
			idx.decay(0.5, 0.25)
			p.observe(idx)
		}
	}
	close(done)
	wg.Wait()
}

// TestSinglePairPublicationEqualsRebuild is the contract observePair rests
// on: over random sequences of hits, weighted raises, decays and resets on
// a decay index, a PublishSync publisher told which pair each raise moved
// (with the full publish wherever the step touched more than one pair)
// serves, at every step, the rules a rebuild from the index gives in the
// rebuild's order. It publishes exactly when that order or membership
// changed, and otherwise keeps serving the same snapshot at the same
// version. A publish carries the index's supports for the run it rebuilt,
// and a full publish for every run. Ids and supports come from small
// grids, so pairs cross the threshold and tie with each other all the
// time.
func TestSinglePairPublicationEqualsRebuild(t *testing.T) {
	const threshold = 2
	weights := []float64{0.5, 1, 1.5, 2}
	f := func(ops []uint32) bool {
		idx := newDecayIndex(threshold)
		p := publisherOver(idx, PublisherConfig{Policy: PublishSync})
		ref := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
		p.publish(idx) // observePair needs a base that was built from the index
		for step, op := range ops {
			src, rep := trace.HostID(1+op>>4%3), trace.HostID(1+op>>6%4)
			k, full := packPair(src, rep), false
			before := p.view()
			switch kind := op % 16; {
			case kind < 10:
				p.observePair(idx, k, hit(idx, src, rep))
			case kind < 14:
				idx.add(src, rep, weights[int(op>>8)%len(weights)])
				p.observePair(idx, k, idx.Support(src, rep))
			case kind < 15:
				idx.decay(0.5, 0.25)
				p.observe(idx)
				full = true
			default:
				idx.reset()
				p.observe(idx)
				full = true
			}
			got, want := p.view(), ref.publish(idx)
			if !sameOrder(got, want) {
				t.Errorf("step %d (op %#x): serves %v, rebuild has %v", step, op, got.rules, want.rules)
				return false
			}
			moved := full || !sameOrder(before, want)
			if kept := got == before; kept == moved {
				t.Errorf("step %d (op %#x): kept %v, but order or membership moved %v", step, op, kept, moved)
				return false
			}
			if moved && got.version != before.version+1 {
				t.Errorf("step %d: version %d after %d", step, got.version, before.version)
				return false
			}
			if !moved {
				continue
			}
			check := want.Run(src)
			if full {
				check = want.rules
			}
			for _, e := range check {
				if got.Support(e.Key.Source(), e.Key.Replier()) != e.Support {
					t.Errorf("step %d (op %#x): published %v, rebuild has %v", step, op, got.rules, want.rules)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// observePair falls back to the full rebuild whenever the served snapshot
// is missing more than the reported pair: before the first publish, and
// under a policy that let earlier observations go unpublished.
func TestObservePairRebuildsWhenSnapshotIsBehind(t *testing.T) {
	idx := newDecayIndex(2)
	idx.Set(1, 2, 5) // in the index before any publish
	p := publisherOver(idx, PublisherConfig{Policy: PublishSync})
	p.observePair(idx, packPair(3, 4), hit(idx, 3, 4))
	if v := p.view(); v.Version() != 1 || v.Support(1, 2) != 5 {
		t.Fatalf("first publish: v%d support(1,2)=%v, want the full rebuild", v.Version(), v.Support(1, 2))
	}

	idx = newDecayIndex(1)
	p = publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 2})
	p.publish(idx)
	p.observePair(idx, packPair(1, 2), hit(idx, 1, 2)) // unpublished: epoch not full
	if p.Version() != 1 || p.lag() != 1 {
		t.Fatalf("epoch policy: v%d lag %d after one observation, want v1 lag 1", p.Version(), p.lag())
	}
	p.observePair(idx, packPair(1, 3), hit(idx, 1, 3))
	if v := p.view(); v.Version() != 2 || v.Len() != 2 || p.lag() != 0 {
		t.Fatalf("epoch policy: v%d with %d rules, lag %d; want v2 with both pairs, lag 0", v.Version(), v.Len(), p.lag())
	}
}
