package core

import (
	"slices"
	"testing"

	"arq/internal/trace"
)

// forwardFixture is a published table with one long run, for antecedent 5
// in forwarding order 10 (4), 11 (3), 12 (2), 13 (1), and a one-rule run
// for antecedent 7.
func forwardFixture() *RuleSnapshot {
	return NewLearner(LearnerConfig{Threshold: 1}).Update(func(idx *PairIndex) {
		for rep, sup := range map[trace.HostID]float64{10: 4, 11: 3, 12: 2, 13: 1} {
			idx.Set(5, rep, sup)
		}
		idx.Set(7, 10, 1)
	})
}

// usableIn is a usable-next-hop test that keeps a consequent's HostID as
// the target and accepts exactly the hosts listed.
func usableIn(hosts ...trace.HostID) func(trace.HostID) (trace.HostID, bool) {
	return func(h trace.HostID) (trace.HostID, bool) { return h, slices.Contains(hosts, h) }
}

func TestForward(t *testing.T) {
	all := usableIn(10, 11, 12, 13)
	for _, tc := range []struct {
		name   string
		snap   *RuleSnapshot
		ante   trace.HostID
		k      int
		dst    []trace.HostID
		usable func(trace.HostID) (trace.HostID, bool)
		want   []trace.HostID
		why    Reason
	}{
		{"rule hit takes the run's head", forwardFixture(), 5, 2, nil, all, []trace.HostID{10, 11}, RuleHit},
		{"k caps the choice", forwardFixture(), 5, 1, nil, all, []trace.HostID{10}, RuleHit},
		{"a run shorter than k is taken whole", forwardFixture(), 5, 9, nil, all, []trace.HostID{10, 11, 12, 13}, RuleHit},
		{"an unusable consequent uses up no slot", forwardFixture(), 5, 2, nil, usableIn(11, 13), []trace.HostID{11, 13}, RuleHit},
		{"appends after the caller's prefix", forwardFixture(), 7, 2, []trace.HostID{99}, all, []trace.HostID{99, 10}, RuleHit},
		{"no rule for the antecedent", forwardFixture(), 6, 2, []trace.HostID{99}, all, []trace.HostID{99}, NoRule},
		{"no usable consequent", forwardFixture(), 5, 2, []trace.HostID{99}, usableIn(20), []trace.HostID{99}, NoUsable},
		{"the empty version-0 snapshot", emptySnapshot, 5, 2, nil, all, nil, NoRule},
		{"the empty snapshot, no upstream", emptySnapshot, trace.NoHost, 2, nil, all, nil, NoRule},
	} {
		got, why := Forward(tc.snap, tc.ante, tc.k, tc.dst, tc.usable)
		if !slices.Equal(got, tc.want) || why != tc.why {
			t.Errorf("%s: Forward = %v, %d; want %v, %d", tc.name, got, why, tc.want, tc.why)
		}
	}
}

// Forward maps a consequent to the caller's target type, and adds no
// allocation of its own to a caller whose buffer has room.
func TestForwardTargetsAndAllocations(t *testing.T) {
	s := forwardFixture()
	usable := func(h trace.HostID) (int32, bool) { return int32(trace.IDOf(h)), h != 10 }
	buf := make([]int32, 0, 4)
	if n := testing.AllocsPerRun(100, func() { buf, _ = Forward(s, 5, 2, buf[:0], usable) }); n != 0 {
		t.Errorf("Forward: %v allocs per call, want 0", n)
	}
	if !slices.Equal(buf, []int32{10, 11}) {
		t.Errorf("Forward chose node ids %v, want [10 11] (hosts 11 and 12)", buf)
	}
}

// FuzzRouteDecision holds the one forwarding decision to its definition
// on any snapshot the checkpoint decoder accepts, the rule-trust boundary:
// the first k consequents of the antecedent's run that the caller's test
// accepts, appended after the caller's prefix, and a reason that agrees
// with them. A snapshot whose rules name no usable peer therefore leaves
// the caller's fallback to act, and one whose rules name every peer still
// chooses at most k of them.
func FuzzRouteDecision(f *testing.F) {
	f.Add(forwardFixture().Marshal(), uint32(10), uint8(1), uint64(1<<11|1<<13))
	f.Add(forwardFixture().Marshal(), uint32(2), uint8(3), ^uint64(0))
	f.Add(forwardFixture().Marshal(), uint32(0), uint8(0), uint64(0))
	f.Add(NewLearner(LearnerConfig{Threshold: 1}).Update(func(idx *PairIndex) {
		for i, src := range []trace.HostID{9, 2, 5} {
			for j, sup := range []float64{2, 6, 2} {
				idx.Set(src, trace.HostID(10*(j+1)+i), sup)
			}
		}
	}).Marshal(), uint32(4), uint8(1), uint64(1<<20|1<<30))
	f.Add(emptySnapshot.Marshal(), uint32(1), uint8(2), ^uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, ante uint32, kb uint8, mask uint64) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		// An even ante picks one of the snapshot's own antecedents, an odd
		// one any host at all.
		src := trace.HostID(ante >> 1)
		if n := s.Len(); n > 0 && ante&1 == 0 {
			src = s.rules[int(ante>>1)%n].Key.Source()
		}
		k := int(kb%8) + 1
		usable := func(h trace.HostID) (trace.HostID, bool) { return h, mask>>(h%64)&1 == 1 }
		prefix := []trace.HostID{7, 7}

		got, why := Forward(s, src, k, slices.Clone(prefix), usable)
		run := s.run(src)
		want := slices.Clone(prefix)
		for _, e := range run {
			if len(want)-len(prefix) == k {
				break
			}
			if h, ok := usable(e.Key.Replier()); ok {
				want = append(want, h)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Forward(ante %v, k %d) = %v, want %v", src, k, got, want)
		}
		wantWhy := RuleHit
		switch {
		case len(run) == 0:
			wantWhy = NoRule
		case len(got) == len(prefix):
			wantWhy = NoUsable
		}
		if why != wantWhy {
			t.Fatalf("Forward(ante %v, k %d) chose %v with reason %d, want %d", src, k, got[len(prefix):], why, wantWhy)
		}
	})
}
