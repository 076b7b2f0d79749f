package routing

import (
	"sort"
	"testing"

	"arq/internal/core"
	"arq/internal/peer"
	"arq/internal/stats"
)

// refAssoc is the pre-engine Assoc support table — private nested
// map[int]map[int32]float64 with inline decay — preserved here verbatim as
// the behavioural reference for the core.PairIndex-backed router.
type refAssoc struct {
	cfg    AssocConfig
	learn  core.LearnerConfig
	counts map[int]map[int32]float64
	seen   int
}

func newRefAssoc(cfg AssocConfig, learn core.LearnerConfig) *refAssoc {
	return &refAssoc{cfg: cfg, learn: learn, counts: make(map[int]map[int32]float64)}
}

func (a *refAssoc) observeHit(u, from, via int) {
	if via == u {
		return
	}
	m := a.counts[from]
	if m == nil {
		m = make(map[int32]float64)
		a.counts[from] = m
	}
	m[int32(via)]++
	a.seen++
	if a.seen%a.learn.DecayEvery == 0 {
		for ante, rules := range a.counts {
			for v, sup := range rules {
				sup *= a.learn.Decay
				if sup < 0.25 {
					delete(rules, v)
				} else {
					rules[v] = sup
				}
			}
			if len(rules) == 0 {
				delete(a.counts, ante)
			}
		}
	}
}

func (a *refAssoc) route(from int, nbrs []int32) []int32 {
	rules := a.counts[from]
	type cand struct {
		v   int32
		sup float64
	}
	var cands []cand
	for _, v := range nbrs {
		if int(v) == from {
			continue
		}
		if sup := rules[v]; sup >= a.learn.Threshold {
			cands = append(cands, cand{v, sup})
		}
	}
	if len(cands) == 0 {
		return nil // both modes diverge to flooding/drop identically
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sup != cands[j].sup {
			return cands[i].sup > cands[j].sup
		}
		return cands[i].v < cands[j].v
	})
	k := a.cfg.TopK
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int32, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.v)
	}
	return out
}

func (a *refAssoc) consequents(antecedent int) []int32 {
	type cand struct {
		v   int32
		sup float64
	}
	var cands []cand
	for v, sup := range a.counts[antecedent] {
		if sup >= a.learn.Threshold {
			cands = append(cands, cand{v, sup})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sup != cands[j].sup {
			return cands[i].sup > cands[j].sup
		}
		return cands[i].v < cands[j].v
	})
	out := make([]int32, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}

func (a *refAssoc) adoptShortcut(v, w int32) {
	for _, rules := range a.counts {
		if sup, ok := rules[v]; ok && sup >= a.learn.Threshold {
			if rules[w] < sup {
				rules[w] = sup * 1.01
			}
		}
	}
}

func (a *refAssoc) ruleCount() int {
	n := 0
	for _, rules := range a.counts {
		for _, sup := range rules {
			if sup >= a.learn.Threshold {
				n++
			}
		}
	}
	return n
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAssocMatchesReferenceImplementation drives the engine-backed router
// and the pre-engine reference through an identical random interleaving of
// hits, routes, shortcut adoptions, and rule queries, requiring exactly
// equal decisions throughout — including the float decay residue, which is
// the same op sequence in both.
func TestAssocMatchesReferenceImplementation(t *testing.T) {
	cfg, learn := AssocConfig{TopK: 2}, core.LearnerConfig{Threshold: 2, Decay: 0.5, DecayEvery: 16}
	a := newAssocWith(cfg, learn)
	ref := newRefAssoc(cfg, learn)
	rng := stats.NewRNG(42)
	const nodes = 12
	nbrs := make([]int32, nodes)
	for i := range nbrs {
		nbrs[i] = int32(i)
	}
	for step := 0; step < 8000; step++ {
		from := rng.Intn(nodes + 1) // nodes means NoUpstream
		ante := from
		if from == nodes {
			ante = peer.NoUpstream
		}
		switch op := rng.Intn(10); {
		case op < 6: // hit feedback
			u := rng.Intn(nodes)
			via := rng.Intn(nodes)
			a.ObserveHit(u, ante, peer.Meta{}, via)
			ref.observeHit(u, ante, via)
		case op < 8: // route
			got := a.Route(0, ante, peer.Meta{}, nbrs)
			want := ref.route(ante, nbrs)
			if want == nil {
				// Reference signals fallback; real router floods.
				want = Flood{}.Route(0, ante, peer.Meta{}, nbrs)
			}
			if !int32sEqual(got, want) {
				t.Fatalf("step %d: Route(from=%d) = %v, ref %v", step, ante, got, want)
			}
		case op < 9: // topology adaptation
			v, w := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
			if v != w {
				a.AdoptShortcut(v, w)
				ref.adoptShortcut(v, w)
			}
		default: // rule inspection
			if ante == peer.NoUpstream {
				ante = rng.Intn(nodes)
			}
			if got, want := a.Consequents(ante), ref.consequents(ante); !int32sEqual(got, want) {
				t.Fatalf("step %d: Consequents(%d) = %v, ref %v", step, ante, got, want)
			}
			if got, want := a.RuleCount(), ref.ruleCount(); got != want {
				t.Fatalf("step %d: RuleCount = %d, ref %d", step, got, want)
			}
		}
	}
	if got, want := a.RuleCount(), ref.ruleCount(); got != want {
		t.Fatalf("final RuleCount = %d, ref %d", got, want)
	}
	// Final exhaustive comparison across every antecedent slot.
	for v := -1; v < nodes; v++ {
		got, want := a.Consequents(v), ref.consequents(v)
		if !int32sEqual(got, want) {
			t.Fatalf("final Consequents(%d) = %v, ref %v", v, got, want)
		}
	}
}
