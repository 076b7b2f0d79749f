package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"arq/internal/stats"
	"arq/internal/trace"
)

// NewLearner returns a learner serving the empty version-0 snapshot;
// outside tests learners sit by value in a slab and are initialised in
// place.
func NewLearner(cfg LearnerConfig) *Learner {
	l := new(Learner)
	l.Init(&cfg)
	return l
}

// observe feeds l one observation: a run of one.
func observe(l *Learner, src, rep trace.HostID) { l.Observe(src, []trace.HostID{rep}) }

// sameOrder reports whether two snapshots hold the same rules in the same
// order, whatever their supports: all a routing decision reads of one.
func sameOrder(a, b *RuleSnapshot) bool {
	return slices.EqualFunc(a.rules, b.rules, func(x, y RuleEntry) bool { return x.Key == y.Key })
}

// TestLearnerMatchesRebuild pins the one write plane against the
// mechanism it is built from. An 8000-step observation stream goes
// through Learner.Observe; beside it a bare PairIndex absorbs the same
// stream with the same decay cadence, and the oracle is the full rebuild
// of that index at every step. At every step the learner's served
// snapshot must hold the rebuild's rules in the rebuild's order, at a
// version that never goes back; after every decay step, which publishes
// in full, the supports must be equal too. Publish must then return
// exactly the rebuild, and Update and Restore must each publish a
// strictly newer version.
func TestLearnerMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name       string
		decayEvery int
	}{
		{"sync", 64},
		{"sync-nodecay", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: tc.decayEvery, Floor: 0.25}
			l := NewLearner(cfg)
			refIdx := NewPairIndex()

			rng := stats.NewRNG(7)
			var last uint64
			for step := 1; step <= 8000; step++ {
				src, rep := trace.HostID(rng.Intn(6)), trace.HostID(1+rng.Intn(8))
				observe(l, src, rep)
				refIdx.add(src, rep, 1)
				decayed := tc.decayEvery > 0 && step%tc.decayEvery == 0
				if decayed {
					refIdx.decay(cfg.Decay, cfg.Floor)
				}

				got, want := l.View(), rebuild(refIdx, cfg.Threshold)
				if !sameOrder(got, want) || got.version < last {
					t.Fatalf("step %d: learner serves v%d %v after v%d, rebuild gives %v",
						step, got.version, got.rules, last, want.rules)
				}
				if decayed && !slices.Equal(got.rules, want.rules) {
					t.Fatalf("step %d: full publish serves %v, rebuild gives %v", step, got.rules, want.rules)
				}
				last = got.version
			}
			if l.Version() == 0 {
				t.Fatal("stream never published")
			}

			p := l.Publish()
			if want := rebuild(refIdx, cfg.Threshold); p.version <= last || l.View() != p || !slices.Equal(p.rules, want.rules) {
				t.Fatalf("Publish gave v%d (was v%d) %v, rebuild gives %v", p.version, last, p.rules, want.rules)
			}
			before := p.Version()
			s := l.Update(func(idx *PairIndex) { idx.Set(100, 200, 9) })
			if s.Version() <= before || l.View() != s || s.Support(100, 200) != 9 {
				t.Fatalf("Update published v%d (was v%d), support %v", s.Version(), before, s.Support(100, 200))
			}
			before = s.Version()
			r := l.Restore(s, 0.5)
			if r.Version() <= before || l.View() != r || r.Support(100, 200) != 13.5 {
				t.Fatalf("Restore published v%d (was v%d), support %v", r.Version(), before, r.Support(100, 200))
			}
		})
	}
}

// TestLearnerLayout pins what a Learner costs where thousands sit side by
// side in one slab (routing.NewAssocs): its size, so that the next field
// added shows up in review, and that what the serve plane reads on every
// routing decision, the served snapshot's pointer, comes first. routing's
// TestAssocLayout puts it inside the router's first cache line.
func TestLearnerLayout(t *testing.T) {
	var l Learner
	if off := unsafe.Offsetof(l.cur); off != 0 {
		t.Errorf("the served snapshot's pointer is at offset %d of a Learner, want 0", off)
	}
	if size := unsafe.Sizeof(l); size > 88 {
		t.Errorf("a Learner is %d bytes, ceiling 88", size)
	}
}

// The decay parameters are validated once, here, for both deployments of
// the learner. A config that sets the cadence and leaves the factor zero
// used to multiply every support by 0 at the first boundary.
func TestLearnerRepairsDecayAndFloor(t *testing.T) {
	l := NewLearner(LearnerConfig{Threshold: 2, DecayEvery: 4})
	for i := 0; i < 4; i++ {
		observe(l, 1, 2)
	}
	if got := l.View().Support(1, 2); got != 2 {
		t.Fatalf("support %v after the first decay boundary, want 2 (four hits at the default factor 0.5)", got)
	}
	for _, tc := range []struct {
		in, want LearnerConfig
	}{
		{LearnerConfig{Threshold: 2}, LearnerConfig{Threshold: 2, Decay: 0.5, Floor: 0.25}},
		{LearnerConfig{Threshold: 2, Decay: 1.5, Floor: 2}, LearnerConfig{Threshold: 2, Decay: 0.5, Floor: 0.25}},
		{LearnerConfig{Threshold: 0.2, Decay: 1, Floor: -1}, LearnerConfig{Threshold: 0.2, Decay: 1, Floor: 0.025}},
		{LearnerConfig{Threshold: 2, Decay: 0.9, Floor: 1.5}, LearnerConfig{Threshold: 2, Decay: 0.9, Floor: 1.5}},
	} {
		got := NewLearner(tc.in).cfg
		if got.Decay != tc.want.Decay || got.Floor != tc.want.Floor {
			t.Errorf("%+v: learner runs on Decay %v Floor %v, want %v and %v", tc.in, got.Decay, got.Floor, tc.want.Decay, tc.want.Floor)
		}
	}
}

// FuzzLearnerServe drives a Learner and the rebuild-only oracle of
// TestLearnerMatchesRebuild (a bare PairIndex, rebuilt in full at every
// step) through the same stream of observations, structural Updates,
// forced Publishes and Restores of snapshots served earlier, with decay
// boundaries every few observations. After each step the learner must
// serve the rebuild's rules in the rebuild's order, and its version must
// not go back; after a decay step, an Update, a Restore or a Publish the
// supports must be equal too, and the last three must each publish a newer
// version. Every snapshot the learner served along the way is kept with a
// copy of what it held then, and at the end each must still hold exactly
// that: a published snapshot is never written again, however many later
// ones were derived from it or share its rule storage.
func FuzzLearnerServe(f *testing.F) {
	f.Add(uint8(4), []byte("\x00\x11\x00\x11\x00\x12\x00\x13\x00\x11\x0d\x25\x00\x11\x0e\x02\x00\x35\x0f\x00"))
	f.Add(uint8(3), []byte("\x00\x11\x00\x11\x00\x21\x00\x21\x00\x11\x00\x31\x00\x31\x0e\x01\x00\x11"))
	f.Add(uint8(0), []byte("\x00\x11\x00\x12\x00\x13\x00\x14\x00\x15\x00\x11\x00\x12\x00\x13\x00\x14\x00\x15\x0f\x00"))
	f.Fuzz(func(t *testing.T, decayEvery uint8, ops []byte) {
		cfg := LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: int(decayEvery % 8), Floor: 0.25}
		l := NewLearner(cfg)
		refIdx := NewPairIndex()

		type served struct {
			snap *RuleSnapshot
			then RuleSnapshot
		}
		var kept []served
		seen := 0
		for step := 0; step+1 < len(ops); step += 2 {
			kind, arg := ops[step]%16, ops[step+1]
			src, rep := trace.HostID(arg>>4%4), trace.HostID(1+arg%6)
			before, full := l.Version(), true
			switch {
			case kind < 13:
				observe(l, src, rep)
				refIdx.add(src, rep, 1)
				if seen++; cfg.DecayEvery > 0 && seen%cfg.DecayEvery == 0 {
					refIdx.decay(cfg.Decay, cfg.Floor)
				} else {
					full = false
				}
			case kind == 13:
				edit := func(idx *PairIndex) { idx.Set(src, rep, float64(arg>>6)) }
				l.Update(edit)
				edit(refIdx)
			case kind == 14 && len(kept) > 0:
				old := kept[int(arg)%len(kept)].snap
				l.Restore(old, 0.5)
				for _, e := range old.byKey() {
					refIdx.add(e.Key.Source(), e.Key.Replier(), e.Support*0.5)
				}
			default:
				l.Publish()
			}
			got, want := l.View(), rebuild(refIdx, cfg.Threshold)
			if !sameOrder(got, want) || full && !slices.Equal(got.rules, want.rules) {
				t.Fatalf("step %d (op %#x %#x): learner serves v%d %v, rebuild gives %v",
					step/2, ops[step], arg, got.version, got.rules, want.rules)
			}
			if got.version < before || kind >= 13 && got.version == before {
				t.Fatalf("step %d (op %#x): version %d after %d", step/2, ops[step], got.version, before)
			}
			if len(kept) == 0 || kept[len(kept)-1].snap != got {
				then := *got
				then.rules = slices.Clone(got.rules)
				kept = append(kept, served{got, then})
			}
		}
		for _, k := range kept {
			now, then := k.snap, k.then
			if now.version != then.version || !slices.Equal(now.rules, then.rules) {
				t.Fatalf("snapshot v%d changed after it was published: %v, held %v", then.version, now.rules, then.rules)
			}
		}
	})
}

// FuzzLearnerRun holds a run to the learning of its singles. Twin learners
// take the same observations: one a call per observation, the other in
// runs the fuzzer cuts, each of one antecedent. After every run the two
// indexes must hold the same pairs at bit-identical supports; the run
// learner must serve the rules of a rebuild of that index in the
// rebuild's order, and, when a decay step fell inside the run, the
// rebuild's supports too; its version must not go back, and it must never
// have published more often than the singles learner.
//
// ops is a stream of runs: a header byte (antecedent in its high bits, run
// length 1–8 in its low three) followed by that many replier bytes.
func FuzzLearnerRun(f *testing.F) {
	f.Add(uint8(4), []byte("\x13\x01\x02\x01\x02\x11\x03\x27\x01\x01\x02\x03\x04\x05\x01\x01\x05\x02\x02\x03\x03\x04"))
	f.Add(uint8(3), []byte("\x07\x01\x01\x01\x02\x02\x03\x03\x01\x11\x04\x04\x17\x05\x05\x05\x05\x01\x01\x01\x01"))
	f.Add(uint8(0), []byte("\x03\x01\x02\x03\x04\x03\x04\x03\x02\x01\x13\x01\x02\x03\x04\x07\x05\x05\x05\x05\x01\x01\x01\x01"))
	f.Add(uint8(0), []byte("\x03\x01\x01\x02\x02\x00\x02\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, decayEvery uint8, ops []byte) {
		cfg := LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: int(decayEvery % 8), Floor: 0.25}
		single, batch := NewLearner(cfg), NewLearner(cfg)
		seen := 0
		var last uint64
		for i := 0; i < len(ops); {
			head := ops[i]
			i++
			src := trace.HostID(head >> 4 % 4)
			n := min(1+int(head%8), len(ops)-i)
			if n == 0 {
				break
			}
			reps := make([]trace.HostID, n)
			for j := range reps {
				reps[j] = trace.HostID(1 + ops[i+j]%6)
				observe(single, src, reps[j])
			}
			i += n
			batch.Observe(src, reps)
			decayed := cfg.DecayEvery > 0 && (seen+n)/cfg.DecayEvery > seen/cfg.DecayEvery
			seen += n

			if single.idx.counts.Len() != batch.idx.counts.Len() || single.View().Len() != batch.View().Len() {
				t.Fatalf("run %v of %d: %d pairs (%d served rules) after a run, %d (%d) one at a time", reps, src,
					batch.idx.counts.Len(), batch.View().Len(), single.idx.counts.Len(), single.View().Len())
			}
			single.idx.Range(func(k PairKey, v float64) bool {
				if got := batch.idx.counts.Get(k); got != v {
					t.Fatalf("run %v of %d: pair %x at %v after a run, %v one at a time", reps, src, uint64(k), got, v)
				}
				return true
			})
			got, want := batch.View(), rebuild(&single.idx, cfg.Threshold)
			if !sameOrder(got, want) || decayed && !slices.Equal(got.rules, want.rules) {
				t.Fatalf("run %v of %d (decay inside: %v): serves v%d %v, rebuild gives %v",
					reps, src, decayed, got.version, got.rules, want.rules)
			}
			if got.version < last || got.version > single.Version() {
				t.Fatalf("run %v of %d: version %d after %d, singles at %d", reps, src, got.version, last, single.Version())
			}
			last = got.version
		}
	})
}

// A clone is its source's index slot for slot, serving its very snapshot
// (and so at its version); from then on what either learns leaves the
// other as a replica fed the same stream. The index compares whole.
func TestLearnerCloneFrom(t *testing.T) {
	cfg := DefaultLearnerConfig()
	feed := func(l *Learner, seed uint64) {
		rng := stats.NewRNG(seed)
		for range 3000 {
			src := rng.Intn(10) // three repliers each: 30 pairs, most of them rules
			observe(l, trace.HostID(src), trace.HostID(1+3*src+rng.Intn(3)))
		}
	}
	for _, driveClone := range []bool{true, false} {
		src, replica := NewLearner(cfg), NewLearner(cfg)
		feed(src, 7)
		feed(replica, 7)
		c := new(Learner)
		c.CloneFrom(src)
		if !reflect.DeepEqual(c.idx, src.idx) || c.View() != src.View() {
			t.Fatal("a fresh clone differs from its source")
		}
		if src.idx.counts.Len() <= 8 || src.View().Len() == 0 {
			t.Fatalf("the source tracks %d pairs, %d rules: too few to hash", src.idx.counts.Len(), src.View().Len())
		}
		driven, kept := src, c
		if driveClone {
			driven, kept = c, src
		}
		feed(driven, 8)
		driven.Update(func(idx *PairIndex) { idx.reset() })
		if !reflect.DeepEqual(kept.idx, replica.idx) || kept.Version() != replica.Version() || kept.seen != replica.seen {
			t.Fatalf("driving one side (clone %v) moved the other", driveClone)
		}
	}
}
