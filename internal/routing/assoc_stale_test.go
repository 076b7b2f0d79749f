package routing

import (
	"testing"

	"arq/internal/core"
	"arq/internal/obsv"
	"arq/internal/peer"
)

// With a staleness bound in observations, a learned rule routes while the
// snapshot is fresh, yields to flooding once the learn plane runs ahead
// of the last publish (counted by routing.assoc.stale_fallbacks), and
// routes again after a republish.
func TestAssocStaleObsFallsBackToFlood(t *testing.T) {
	a := NewAssoc(AssocConfig{TopK: 1, Threshold: 2, Decay: 0.5, DecayEvery: 1000,
		Publish: core.PublishEpoch, PublishEvery: 1 << 30, StaleObs: 10})
	nbrs := []int32{2, 3, 4}
	q := peer.Meta{Category: 1}

	for i := 0; i < 5; i++ {
		a.ObserveHit(0, 1, q, 2)
	}
	a.PublishNow()
	if got := a.Route(0, 1, q, nbrs); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fresh snapshot route = %v, want [2]", got)
	}

	// Publication stalled (epoch budget is unreachable): absorbing the
	// staleness bound's worth of observations degrades routing to
	// flooding, despite the rule still being in the served snapshot.
	before := obsv.GetCounter("routing.assoc.stale_fallbacks").Value()
	for i := 0; i < 10; i++ {
		a.ObserveHit(0, 1, q, 2)
	}
	if lag := a.learn.Lag(); lag < 10 {
		t.Fatalf("snapshot lag = %d, want >= 10", lag)
	}
	if got := a.Route(0, 1, q, nbrs); len(got) != 3 {
		t.Fatalf("stale route = %v, want the full flood", got)
	}
	if d := obsv.GetCounter("routing.assoc.stale_fallbacks").Value() - before; d != 1 {
		t.Fatalf("stale_fallbacks delta = %d, want 1", d)
	}

	// A republish catches the serve plane up; rule routing resumes.
	a.PublishNow()
	if got := a.Route(0, 1, q, nbrs); len(got) != 1 || got[0] != 2 {
		t.Fatalf("post-republish route = %v, want [2]", got)
	}
}

// Staleness overrides Strict: a strict router's contract is "drop rather
// than flood" only while its knowledge is trustworthy.
func TestAssocStaleOverridesStrict(t *testing.T) {
	a := NewAssoc(AssocConfig{TopK: 1, Threshold: 2, Decay: 0.5, DecayEvery: 1000,
		Strict: true, Publish: core.PublishEpoch, PublishEvery: 1 << 30, StaleObs: 4})
	nbrs := []int32{2, 3, 4}
	q := peer.Meta{Category: 1}
	for i := 0; i < 2; i++ {
		a.ObserveHit(0, 1, q, 2)
	}
	a.PublishNow()
	if got := a.Route(0, 1, q, nbrs); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fresh strict route = %v, want [2]", got)
	}
	for i := 0; i < 4; i++ {
		a.ObserveHit(0, 1, q, 2)
	}
	if got := a.Route(0, 1, q, nbrs); len(got) != 3 {
		t.Fatalf("stale strict route = %v, want the full flood", got)
	}
}
