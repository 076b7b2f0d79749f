package core

import (
	"sync"
	"testing"
	"testing/quick"

	"arq/internal/trace"
)

// hit adds one observation of the pair and returns its new support.
func hit(idx *PairIndex, src, rep trace.HostID) float64 { return idx.add(src, rep, 1) }

// covers and matches make a snapshot a ruleView.
func (s *RuleSnapshot) covers(src trace.HostID) bool { return len(s.run(src)) > 0 }

func (s *RuleSnapshot) matches(src, rep trace.HostID) bool { return s.Support(src, rep) > 0 }

// rebuild is the rebuild-only oracle the learner's tests hold it to: the
// rules a full publish of idx at threshold serves, with no version,
// whatever was published before.
func rebuild(idx *PairIndex, threshold float64) *RuleSnapshot {
	return &RuleSnapshot{rules: idx.ruleEntries(threshold)}
}

func TestPublishSyncTracksEveryObservation(t *testing.T) {
	l := NewLearner(LearnerConfig{Threshold: 2})
	if v := l.View(); v.Version() != 0 || v.Len() != 0 {
		t.Fatalf("initial view = v%d len %d", v.Version(), v.Len())
	}
	observe(l, 1, 2)
	if v := l.View(); v.Version() != 1 || v.Len() != 0 {
		t.Fatalf("after 1 obs: v%d len %d (support below threshold)", v.Version(), v.Len())
	}
	observe(l, 1, 2)
	v := l.View()
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
	l := NewLearner(LearnerConfig{Threshold: 2})
	observe(l, 1, 2)
	observe(l, 1, 2)
	old := l.View()
	for i := 0; i < 5; i++ {
		observe(l, 1, 3)
		observe(l, 4, 5)
	}
	if old.Len() != 1 || old.Support(1, 2) != 2 || old.covers(4) {
		t.Fatalf("earlier snapshot changed under later publishes: %+v", old)
	}
	if now := l.View(); now.Len() != 3 {
		t.Fatalf("current snapshot len = %d, want 3", now.Len())
	}
}

func TestSnapshotConsequentOrdering(t *testing.T) {
	l := NewLearner(LearnerConfig{Threshold: 1})
	l.Update(func(idx *PairIndex) {
		idx.Set(1, 7, 5)
		idx.Set(1, 3, 5) // ties break on ascending HostID
		idx.Set(1, 9, 8)
		idx.Set(1, 4, 0.5) // below the threshold: excluded
	})
	got := l.View().Consequents(1, 0)
	want := []trace.HostID{9, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Consequents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Consequents = %v, want %v", got, want)
		}
	}
	if top := l.View().Consequents(1, 2); len(top) != 2 || top[0] != 9 || top[1] != 3 {
		t.Fatalf("Consequents(k=2) = %v", top)
	}
}

// TestPublisherConcurrentReaders drives one writer (observations with a
// decay step every 97, and a forced Publish every 256) against many
// lock-free readers; run under -race this pins the write-plane/read-plane
// memory contract.
func TestPublisherConcurrentReaders(t *testing.T) {
	l := NewLearner(LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 97, Floor: 0.25})
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
				v := l.View()
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
		observe(l, trace.HostID(1+i%5), trace.HostID(1+(i*7)%11))
		if i%256 == 255 {
			l.Publish()
		}
	}
	close(done)
	wg.Wait()
}

// TestSinglePairPublicationEqualsRebuild is the contract observeRun rests
// on, for runs of one pair: over random sequences of hits, weighted
// raises, decays and resets on a learner's index, the learner told which
// pair each raise moved (with the full publish wherever the step touched
// more than one pair) serves, at every step, the rules a rebuild from the index gives in the
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
		l := NewLearner(LearnerConfig{Threshold: threshold})
		idx := &l.idx
		l.publish() // observeRun needs a base that was built from the index
		for step, op := range ops {
			src, rep := trace.HostID(1+op>>4%3), trace.HostID(1+op>>6%4)
			full := false
			before := l.View()
			switch kind := op % 16; {
			case kind < 10:
				l.observeRun(src, []trace.HostID{rep}, hit(idx, src, rep))
			case kind < 14:
				idx.add(src, rep, weights[int(op>>8)%len(weights)])
				l.observeRun(src, []trace.HostID{rep}, idx.Support(src, rep))
			case kind < 15:
				idx.decay(0.5, 0.25)
				l.publish()
				full = true
			default:
				idx.reset()
				l.publish()
				full = true
			}
			got, want := l.View(), rebuild(idx, threshold)
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
			check := want.run(src)
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

// observeRun falls back to the full rebuild when the served snapshot was
// never built from the index: before the first publish.
func TestObserveRunRebuildsWhenSnapshotIsBehind(t *testing.T) {
	l := NewLearner(LearnerConfig{Threshold: 2})
	l.idx.Set(1, 2, 5) // in the index before any publish
	l.observeRun(3, []trace.HostID{4}, hit(&l.idx, 3, 4))
	if v := l.View(); v.Version() != 1 || v.Support(1, 2) != 5 {
		t.Fatalf("first publish: v%d support(1,2)=%v, want the full rebuild", v.Version(), v.Support(1, 2))
	}
}
