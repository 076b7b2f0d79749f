package core

import (
	"slices"
	"testing"

	"arq/internal/stats"
	"arq/internal/trace"
)

// TestLearnerMatchesRebuild pins the one write plane against the
// mechanism it is built from. An 8000-step observation stream goes
// through Learner.Observe; beside it a bare PairIndex absorbs the same
// stream with the same decay cadence, and a Publisher over that index is
// driven through Observe only, so every publish it makes is the full
// rebuild. At every step the learner's served snapshot must equal the
// reference's rule for rule and version for version: the single-pair
// publish, the decay cadence and the policy triggers all agree with the
// rebuild. Update and Restore must then each publish a strictly newer
// version whatever the policy.
func TestLearnerMatchesRebuild(t *testing.T) {
	cases := []struct {
		name       string
		policy     PublishPolicy
		decayEvery int
	}{
		{"sync", PublishSync, 64},
		{"onchange", PublishOnChange, 64},
		{"epoch", PublishEpoch, 64},
		{"sync-nodecay", PublishSync, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := LearnerConfig{
				Threshold: 2, Decay: 0.5, DecayEvery: tc.decayEvery, Floor: 0.25,
				Publish: PublisherConfig{Policy: tc.policy, Epoch: 16},
			}
			l := NewLearner(cfg)
			refIdx := NewDecayIndex(cfg.Threshold)
			ref := NewPublisher(refIdx, cfg.Publish)

			rng := stats.NewRNG(7)
			for step := 1; step <= 8000; step++ {
				src, rep := trace.HostID(rng.Intn(6)), trace.HostID(1+rng.Intn(8))
				l.Observe(src, rep)
				refIdx.AddPair(src, rep)
				if tc.decayEvery > 0 && step%tc.decayEvery == 0 {
					refIdx.Decay(cfg.Decay, cfg.Floor)
				}
				ref.Observe()

				got, want := l.View(), ref.View()
				if got.version != want.version || !slices.Equal(got.rules, want.rules) {
					t.Fatalf("step %d: learner serves v%d %v, rebuild gives v%d %v",
						step, got.version, got.rules, want.version, want.rules)
				}
				if l.Lag() != ref.Lag() {
					t.Fatalf("step %d: lag %d, reference %d", step, l.Lag(), ref.Lag())
				}
			}
			if l.Version() == 0 {
				t.Fatal("stream never published")
			}

			before := l.Version()
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
