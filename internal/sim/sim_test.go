package sim

import (
	"fmt"
	"math"
	"testing"

	"arq/internal/core"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

// fixedSource serves the same stable block n times.
type fixedSource struct {
	n, served int
	block     trace.Block
}

func newFixedSource(n int) *fixedSource {
	var blk trace.Block
	g := 0
	for src := trace.HostID(1); src <= 3; src++ {
		for i := 0; i < 20; i++ {
			g++
			blk = append(blk, trace.Pair{GUID: trace.GUID(g), Source: src, Replier: src + 10})
		}
	}
	return &fixedSource{n: n, block: blk}
}

func (f *fixedSource) Next() (trace.Block, bool) {
	if f.served >= f.n {
		return nil, false
	}
	f.served++
	return f.block, true
}

func (f *fixedSource) BlockSize() int { return len(f.block) }

func TestRunCollectsSeries(t *testing.T) {
	r := Run("sliding", &core.Sliding{Prune: 5}, newFixedSource(6), 0)
	if r.Trials != 5 { // first block is warm-up
		t.Fatalf("trials = %d, want 5", r.Trials)
	}
	if len(r.Coverage.Values) != 5 || len(r.Success.Values) != 5 {
		t.Fatalf("series lengths = %d/%d", len(r.Coverage.Values), len(r.Success.Values))
	}
	if r.MeanCoverage() != 1 || r.MeanSuccess() != 1 {
		t.Fatalf("stable source should be perfect: %v/%v", r.MeanCoverage(), r.MeanSuccess())
	}
	if r.Regens != 5 {
		t.Fatalf("sliding regens = %d", r.Regens)
	}
	if r.BlocksPerRegen() != 1 {
		t.Fatalf("blocks/regen = %v", r.BlocksPerRegen())
	}
}

func TestRunMaxTrials(t *testing.T) {
	r := Run("sliding", &core.Sliding{Prune: 5}, newFixedSource(100), 7)
	if r.Trials != 7 {
		t.Fatalf("trials = %d, want 7", r.Trials)
	}
}

func TestRunZeroRegenPolicy(t *testing.T) {
	r := Run("static", &core.Static{Prune: 5}, newFixedSource(4), 0)
	if r.Regens != 0 {
		t.Fatalf("static regens = %d", r.Regens)
	}
	if !math.IsInf(r.BlocksPerRegen(), 1) {
		t.Fatalf("blocks/regen for zero regens = %v, want +Inf", r.BlocksPerRegen())
	}
}

func TestRunRecordsBlocks(t *testing.T) {
	r := Run("sliding", &core.Sliding{Prune: 5}, newFixedSource(6), 0)
	if r.Blocks != 6 { // 1 warm-up + 5 tested
		t.Fatalf("blocks = %d, want 6", r.Blocks)
	}
}

func TestSweepPreservesOrderAndMatchesSerial(t *testing.T) {
	mkSpecs := func() []Spec {
		var specs []Spec
		for i := 0; i < 8; i++ {
			n := 3 + i
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("run-%d", i),
				Policy: func() core.Policy { return &core.Sliding{Prune: 5} },
				Source: func() trace.Source { return newFixedSource(n) },
			})
		}
		return specs
	}
	parallel := Sweep(mkSpecs(), 4)
	serial := Sweep(mkSpecs(), 1)
	if len(parallel) != 8 {
		t.Fatalf("results = %d", len(parallel))
	}
	for i := range parallel {
		if parallel[i].Name != fmt.Sprintf("run-%d", i) {
			t.Fatalf("order broken at %d: %s", i, parallel[i].Name)
		}
		if parallel[i].Trials != serial[i].Trials ||
			parallel[i].MeanCoverage() != serial[i].MeanCoverage() {
			t.Fatalf("parallel and serial sweeps disagree at %d", i)
		}
		if parallel[i].Trials != 2+i {
			t.Fatalf("run %d trials = %d", i, parallel[i].Trials)
		}
	}
}

func TestSweepDefaultWorkers(t *testing.T) {
	specs := []Spec{{
		Name:   "one",
		Policy: func() core.Policy { return &core.Static{Prune: 1} },
		Source: func() trace.Source { return newFixedSource(2) },
	}}
	rs := Sweep(specs, 0)
	if len(rs) != 1 || rs[0].Trials != 1 {
		t.Fatalf("unexpected sweep result: %+v", rs)
	}
}

// TestSweepDeterministicAcrossWorkerCounts guards the parallel sweep path:
// the same specs (tracegen-backed, distinct seeds and policies) must yield
// bit-identical Result series whether run on 1 worker or 8. Run under
// -race this also checks the fan-out for data races.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	mkSpecs := func() []Spec {
		mkSource := func(seed uint64) func() trace.Source {
			return func() trace.Source {
				cfg := tracegen.PaperProfile()
				cfg.Seed = seed
				cfg.BlockSize = 600
				cfg.TotalBlocks = 9
				return tracegen.New(cfg)
			}
		}
		var specs []Spec
		policies := []func() core.Policy{
			func() core.Policy { return &core.Sliding{Prune: 3} },
			func() core.Policy { return &core.Static{Prune: 3} },
			func() core.Policy { return &core.Lazy{Prune: 3, Interval: 3} },
			func() core.Policy { return &core.Adaptive{Prune: 3, Window: 5, Init: 0.7} },
			func() core.Policy { return &core.Incremental{} },
		}
		for i := 0; i < 10; i++ {
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("spec-%d", i),
				Policy: policies[i%len(policies)],
				Source: mkSource(uint64(i + 1)),
			})
		}
		return specs
	}
	serial := Sweep(mkSpecs(), 1)
	parallel := Sweep(mkSpecs(), 8)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name || s.Trials != p.Trials || s.Regens != p.Regens || s.Blocks != p.Blocks {
			t.Fatalf("spec %d headline mismatch: %+v vs %+v", i, s, p)
		}
		if len(s.Coverage.Values) != len(p.Coverage.Values) {
			t.Fatalf("spec %d series length mismatch", i)
		}
		for j := range s.Coverage.Values {
			if s.Coverage.Values[j] != p.Coverage.Values[j] || s.Success.Values[j] != p.Success.Values[j] {
				t.Fatalf("spec %d diverges at block %d: cov %v vs %v, suc %v vs %v",
					i, j, s.Coverage.Values[j], p.Coverage.Values[j],
					s.Success.Values[j], p.Success.Values[j])
			}
		}
	}
}

// sharedRules is a policy that tests every block against a rule set it
// does not own, as the specs of one sweep may.
type sharedRules struct{ rs *core.RuleSet }

func (p sharedRules) Name() string { return "shared" }

func (p sharedRules) Step(block trace.Block) core.StepResult {
	return core.StepResult{Tested: true, Result: p.rs.Test(block), Rules: p.rs.Len()}
}

// TestSweepSharesOneRuleSet: a RuleSet is immutable and its block test
// keeps its per-query state in a pooled table, so many workers may test
// against one *RuleSet at once and get what one worker gets. Under -race
// this is the check that RuleSet.Test writes nothing shared.
func TestSweepSharesOneRuleSet(t *testing.T) {
	mkSource := func(seed uint64) func() trace.Source {
		return func() trace.Source {
			cfg := tracegen.PaperProfile()
			cfg.Seed = seed
			cfg.BlockSize = 1500
			cfg.TotalBlocks = 6
			return tracegen.New(cfg)
		}
	}
	gen, _ := mkSource(1)().Next()
	rs := core.GenerateRuleSet(gen, 3)
	var specs []Spec
	for i := 0; i < 12; i++ {
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("shared-%d", i),
			Policy: func() core.Policy { return sharedRules{rs} },
			Source: mkSource(uint64(1 + i%3)),
		})
	}
	serial, parallel := Sweep(specs, 1), Sweep(specs, 6)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Trials != 6 || s.MeanCoverage() == 0 {
			t.Fatalf("spec %d tested nothing: %+v", i, s)
		}
		for j := range s.Coverage.Values {
			if s.Coverage.Values[j] != p.Coverage.Values[j] || s.Success.Values[j] != p.Success.Values[j] {
				t.Fatalf("spec %d block %d: one worker %v/%v, six workers %v/%v", i, j,
					s.Coverage.Values[j], s.Success.Values[j], p.Coverage.Values[j], p.Success.Values[j])
			}
		}
	}
}

func TestResultString(t *testing.T) {
	r := Run("x", &core.Sliding{Prune: 5}, newFixedSource(3), 0)
	s := r.String()
	if s == "" || r.RuleCount.N() != 2 {
		t.Fatalf("string=%q ruleCountN=%d", s, r.RuleCount.N())
	}
}
