package routing

import (
	"bytes"
	"reflect"
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/stats"
)

// A fork of a trained slab is the slab, twice: driven in lockstep with
// its parent it answers every query as the parent does and ends with the
// same rule tables, and whatever is done to one of the two afterwards —
// queries, a Reset, a Restore — leaves the other exactly as an untouched
// replica trained the same way.
func TestForkAssocs(t *testing.T) {
	const n, ttl = 150, 6
	rng := stats.NewRNG(5)
	g := overlay.GnutellaLike(rng, n)
	m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	jobs := func(seed uint64, q int) []peer.WorkloadJob {
		return peer.DrawWorkload(stats.NewRNG(seed), m, n, q)
	}
	engine := func(as []Assoc) *flat.Engine {
		return flat.NewEngine(g, m, func(u int) peer.Router { return &as[u] })
	}
	// twoPhase runs one query as the strict deployment's origin does: the
	// rule phase, then a flood reissue on a miss. Both phases learn.
	twoPhase := func(e *flat.Engine, j peer.WorkloadJob) peer.Stats {
		if st := e.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: ttl}); st.Found {
			return st
		}
		return e.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: ttl, FloodPhase: true})
	}
	tables := func(as []Assoc) [][]byte {
		out := make([][]byte, len(as))
		for u := range as {
			out[u] = as[u].Snapshot().Marshal()
		}
		return out
	}
	sameTables := func(what string, got, want []Assoc) {
		t.Helper()
		g, w := tables(got), tables(want)
		for u := range w {
			if !bytes.Equal(g[u], w[u]) {
				t.Fatalf("%s: node %d's rule table differs (%d bytes, want %d)", what, u, len(g[u]), len(w[u]))
			}
		}
	}

	for _, strict := range []bool{false, true} {
		cfg := DefaultAssocConfig()
		cfg.Strict = strict
		train := func() []Assoc {
			as := NewAssocs(n, cfg)
			e := engine(as)
			for _, j := range jobs(1, 1500) {
				twoPhase(e, j)
			}
			return as
		}
		// drive teaches as more and then crashes part of it: some nodes
		// forget everything, some restore a neighbor's rules.
		drive := func(as []Assoc) {
			e := engine(as)
			for _, j := range jobs(3, 500) {
				twoPhase(e, j)
			}
			for u := 0; u < n; u += 7 {
				as[u].Reset()
			}
			for u := 3; u < n; u += 5 {
				as[u].Restore(as[(u+1)%n].Snapshot(), 0.5)
			}
		}

		parent := train()
		fork := ForkAssocs(parent)
		ep, ef := engine(parent), engine(fork)
		for i, j := range jobs(2, 800) {
			if a, b := twoPhase(ep, j), twoPhase(ef, j); !reflect.DeepEqual(a, b) {
				t.Fatalf("strict=%v query %d: parent %+v, fork %+v", strict, i, a, b)
			}
		}
		sameTables("after lockstep", fork, parent)

		for _, forkSide := range []bool{true, false} {
			parent, replica := train(), train()
			fork := ForkAssocs(parent)
			changed, kept := parent, fork
			if forkSide {
				changed, kept = fork, parent
			}
			drive(changed)
			sameTables("the side left alone", kept, replica)
			forgot := 0
			for u := 0; u < n; u += 7 {
				if changed[u].RuleCount() == 0 && replica[u].RuleCount() > 0 {
					forgot++
				}
			}
			if forgot == 0 {
				t.Fatalf("strict=%v: no reset node had rules to forget", strict)
			}
		}
	}
}
