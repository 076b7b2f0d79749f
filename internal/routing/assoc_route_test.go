package routing

import (
	"testing"
	"unsafe"

	"arq/internal/core"
	"arq/internal/peer"
)

// newAssocWith is NewAssoc under learning constants of the test's choice.
func newAssocWith(cfg AssocConfig, learn core.LearnerConfig) *Assoc {
	return &newAssocs(1, cfg, learn)[0]
}

// assocCounters reads the three decision counters RouteAppend moves.
func assocCounters() (routed, fallback, drops int64) {
	return assocCounts.RuleRouted.Value(), assocCounts.Fallbacks.Value(), assocCounts.Drops.Value()
}

// RouteAppend walks the antecedent's consequents, not the neighbor list,
// so a rule can name a node that is not a usable next hop. Such a
// consequent is skipped, the next one takes its top-k slot, and a run with
// no usable consequent is handled exactly like an uncovered antecedent.
func TestAssocSkipsDepartedAndSenderConsequents(t *testing.T) {
	a := newAssocWith(AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: 1, Decay: 0.5, DecayEvery: 1000})
	q := peer.Meta{}
	// Rules for antecedent 5, by support: 12 (4), 10 (3), 13 (2), 5 (2), 11 (1).
	for v, n := range map[int]int{12: 4, 10: 3, 13: 2, 5: 2, 11: 1} {
		for i := 0; i < n; i++ {
			a.ObserveHit(0, 5, q, v)
		}
	}

	for _, tc := range []struct {
		name string
		nbrs []int32
		want []int32
	}{
		{"all present", []int32{5, 10, 11, 12, 13}, []int32{12, 10}},
		{"top consequent departed", []int32{5, 10, 11, 13}, []int32{10, 13}},
		{"sender is never a next hop", []int32{5, 11}, []int32{11}},
		{"neighbor order is irrelevant", []int32{13, 11, 10}, []int32{10, 13}},
	} {
		r0, f0, d0 := assocCounters()
		got := a.Route(0, 5, q, tc.nbrs)
		if !int32sEqual(got, tc.want) {
			t.Errorf("%s: route = %v, want %v", tc.name, got, tc.want)
		}
		if r, f, d := assocCounters(); r-r0 != 1 || f != f0 || d != d0 {
			t.Errorf("%s: counted as routed %d, fallback %d, drop %d; want one rule-routed decision",
				tc.name, r-r0, f-f0, d-d0)
		}
	}

	// Every consequent gone (only the sender and strangers remain): the
	// same flood, into the caller's buffer, that an antecedent without
	// rules gets.
	nbrs := []int32{5, 20, 21}
	r0, f0, _ := assocCounters()
	got := a.RouteAppend([]int32{99}, 0, 5, q, nbrs)
	if !int32sEqual(got, []int32{99, 20, 21}) {
		t.Fatalf("no live consequent: route = %v, want the flood appended to the prefix", got)
	}
	if !int32sEqual(a.Route(0, 7, q, nbrs), []int32{5, 20, 21}) {
		t.Fatal("uncovered antecedent did not flood")
	}
	if r, f, _ := assocCounters(); r != r0 || f-f0 != 2 {
		t.Fatalf("no live consequent: routed %d, fallback %d; want 0 and 2", r-r0, f-f0)
	}

	// Under strict deployment the same situation is a drop.
	s := newAssocWith(AssocConfig{TopK: 2, Strict: true}, core.LearnerConfig{Threshold: 1, Decay: 0.5, DecayEvery: 1000})
	s.ObserveHit(0, 5, q, 12)
	_, _, d0 := assocCounters()
	if got := s.RouteAppend([]int32{99}, 0, 5, q, nbrs); !int32sEqual(got, []int32{99}) {
		t.Fatalf("strict, no live consequent: route = %v, want nothing appended", got)
	}
	if _, _, d := assocCounters(); d-d0 != 1 {
		t.Fatalf("strict, no live consequent: %d drops counted, want 1", d-d0)
	}
}

// The serve plane allocates nothing once the caller's buffer has room —
// covered, uncovered and flood-phase alike — and Route, which brings its
// own buffer, allocates exactly that. A learn step that moves no rule's
// rank or membership allocates nothing and keeps serving the same
// snapshot, whether it is one hit or a run of any length; one that moves a
// rule allocates the next snapshot, header and rule slice, and nothing
// else, again for one hit or a run. A run that crosses decay steps
// publishes once.
func TestAssocHotPathAllocations(t *testing.T) {
	a := newAssocWith(AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 1 << 30})
	nbrs := []int32{10, 11, 12, 13, 14, 15}
	q := peer.Meta{}
	for i := 0; i < 3; i++ {
		a.ObserveHit(0, 5, q, 12)
		a.ObserveHit(0, 5, q, 14)
	}
	buf := make([]int32, 0, len(nbrs))
	for _, tc := range []struct {
		name string
		from int
		q    peer.Meta
		want int
	}{
		{"covered", 5, q, 2},
		{"uncovered", 7, q, len(nbrs)},
		{"flood phase", 5, peer.Meta{FloodPhase: true}, len(nbrs)},
	} {
		if n := testing.AllocsPerRun(100, func() {
			buf = a.RouteAppend(buf[:0], 0, tc.from, tc.q, nbrs)
		}); n != 0 {
			t.Errorf("%s RouteAppend: %v allocs per call, want 0", tc.name, n)
		}
		if len(buf) != tc.want {
			t.Errorf("%s RouteAppend chose %v, want %d next hops", tc.name, buf, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() {
			benchRoute = a.Route(0, tc.from, tc.q, nbrs)
		}); n != 1 {
			t.Errorf("%s Route: %v allocs per call, want 1", tc.name, n)
		}
		if len(benchRoute) != tc.want {
			t.Errorf("%s Route chose %v, want %d next hops", tc.name, benchRoute, tc.want)
		}
	}

	// Hits on the head of a run, or on a pair that stays below the
	// threshold, move supports only.
	for _, tc := range []struct {
		name      string
		threshold float64
		via       int
	}{
		{"run-head", 2, 12},
		{"sub-threshold", 1 << 40, 12},
	} {
		r := newAssocWith(AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: tc.threshold, Decay: 0.5, DecayEvery: 1 << 30})
		for i := 0; i < 3; i++ {
			r.ObserveHit(0, 5, q, 12)
			r.ObserveHit(0, 5, q, 14)
		}
		served, rules := r.learn.View(), r.RuleCount()
		if n := testing.AllocsPerRun(100, func() { r.ObserveHit(0, 5, q, tc.via) }); n != 0 {
			t.Errorf("%s ObserveHit: %v allocs per call, want 0", tc.name, n)
		}
		// Runs longer than the stack buffer reach the learner in pieces,
		// and a self-hit (via 0) is counted but not learned.
		for _, size := range []int{2, 7, observeChunk, 3*observeChunk + 5} {
			vias := make([]int32, size)
			for i := range vias {
				vias[i] = int32(tc.via)
			}
			vias[size/2] = 0
			if n := testing.AllocsPerRun(20, func() { r.ObserveHits(0, 5, q, vias) }); n != 0 {
				t.Errorf("%s run of %d: %v allocs per call, want 0", tc.name, size, n)
			}
		}
		if r.learn.View() != served || r.RuleCount() != rules {
			t.Errorf("%s ObserveHit: served snapshot replaced (%d rules, had %d)", tc.name, r.RuleCount(), rules)
		}
	}

	// Two hits a call, each overtaking the other pair of a two-rule run.
	served := a.learn.View()
	if n := testing.AllocsPerRun(100, func() {
		a.ObserveHit(0, 5, q, 14)
		a.ObserveHit(0, 5, q, 12)
	}); n != 4 || a.RuleCount() != 2 {
		t.Errorf("order-moving ObserveHit, %d rules: %v allocs per two calls, want 4 with 2 rules", a.RuleCount(), n)
	}
	if a.learn.View() == served {
		t.Error("order-moving ObserveHit kept the served snapshot")
	}

	// A run of four hits on the trailing rule of the run brings it level
	// with the leader or ahead of it, so every call moves the order.
	r := newAssocWith(AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 1 << 30})
	for i := 0; i < 3; i++ {
		r.ObserveHit(0, 5, q, 12)
		r.ObserveHit(0, 5, q, 14)
	}
	runs := [][]int32{{14, 14, 14, 14}, {12, 12, 12, 12}}
	calls := 0
	if n := testing.AllocsPerRun(100, func() {
		served := r.learn.View()
		r.ObserveHits(0, 5, q, runs[calls%2])
		if r.learn.View() == served {
			t.Fatalf("order-moving run %v kept the served snapshot", runs[calls%2])
		}
		calls++
	}); n != 2 || r.RuleCount() != 2 {
		t.Errorf("order-moving run, %d rules: %v allocs per call, want 2 with 2 rules", r.RuleCount(), n)
	}

	// Ten hits at a decay step every four observations: one full publish.
	d := newAssocWith(AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 4})
	d.ObserveHit(0, 5, q, 12)
	before := d.learn.Version()
	d.ObserveHits(0, 5, q, []int32{12, 14, 12, 14, 12, 14, 12, 14, 12, 14})
	if got := d.learn.Version(); got != before+1 {
		t.Errorf("a run across two decay steps moved the version from %d to %d, want one publish", before, got)
	}
}

// TestAssocLayout pins the slab entry of one node: at most 96 bytes (the
// config pointer and an 88-byte core.Learner, so a field added to either
// shows up here), with everything RouteAppend reads before it reaches the
// snapshot inside the first line: the shared config's pointer, then the
// learner, which core's TestLearnerLayout holds to keep the served
// snapshot's pointer first.
func TestAssocLayout(t *testing.T) {
	var a Assoc
	if off := unsafe.Offsetof(a.cfg); off != 0 {
		t.Errorf("the config pointer is at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(a.learn); off+8 > 64 {
		t.Errorf("the learner starts at offset %d: its served snapshot's pointer leaves the router's first cache line", off)
	}
	if size := unsafe.Sizeof(a); size > 96 {
		t.Errorf("an Assoc is %d bytes, ceiling 96", size)
	}
}

var benchRoute []int32

func BenchmarkAssocRouteAppend(b *testing.B) {
	a := NewAssoc(DefaultAssocConfig())
	nbrs := []int32{10, 11, 12, 13, 14, 15, 16, 17}
	for _, v := range []int{11, 13, 14, 16} {
		for i := 0; i < 4; i++ {
			a.ObserveHit(0, 5, peer.Meta{}, v)
		}
	}
	for _, bc := range []struct {
		name string
		from int
	}{{"covered", 5}, {"uncovered", 7}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]int32, 0, len(nbrs))
			for i := 0; i < b.N; i++ {
				buf = a.RouteAppend(buf[:0], 0, bc.from, peer.Meta{}, nbrs)
			}
			benchRoute = buf
		})
	}
}

func BenchmarkAssocObserveHit(b *testing.B) {
	// "visible" raises one of four published rules, which heads its run
	// from its first hit on; "sub-threshold" puts the threshold out of
	// reach. Between decay steps both keep the served snapshot, and both
	// pay the full rebuild every DecayEvery-th call.
	for _, bc := range []struct {
		name      string
		threshold float64
	}{{"visible", 2}, {"sub-threshold", 1 << 40}} {
		b.Run(bc.name, func(b *testing.B) {
			learn := core.DefaultLearnerConfig()
			learn.Threshold = bc.threshold
			a := newAssocWith(DefaultAssocConfig(), learn)
			for _, v := range []int{11, 13, 14, 16} {
				for i := 0; i < 4; i++ {
					a.ObserveHit(0, 5, peer.Meta{}, v)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ObserveHit(0, 5, peer.Meta{}, 13)
			}
		})
	}
	// "visible-run" hands the same rules a relay's typical run of five
	// hits, one of them its own, in one call; ns/hit is comparable with the
	// rows above.
	b.Run("visible-run", func(b *testing.B) {
		a := NewAssoc(DefaultAssocConfig())
		for _, v := range []int{11, 13, 14, 16} {
			for i := 0; i < 4; i++ {
				a.ObserveHit(0, 5, peer.Meta{}, v)
			}
		}
		vias := []int32{13, 11, 13, 0, 16}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.ObserveHits(0, 5, peer.Meta{}, vias)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vias)), "ns/hit")
	})
}
