package core

import (
	"testing"
	"testing/quick"

	"arq/internal/trace"
)

func ipair(guid int, src, rep trace.HostID, in trace.InterestID) trace.Pair {
	return trace.Pair{GUID: trace.GUID(guid), Source: src, Replier: rep, Interest: in}
}

func TestExtMatchesPlainWithoutOptions(t *testing.T) {
	// With no confidence pruning and no interest dimension, ExtRuleSet
	// must agree exactly with RuleSet.
	f := func(raw []uint16, thRaw uint8) bool {
		th := int(thRaw%5) + 1
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = ipair(i, trace.HostID(r%6+1), trace.HostID(r%4+10), trace.InterestID(r%3))
		}
		plain := GenerateRuleSet(block, th)
		ext := GenerateExtRuleSet(block, GenOptions{Prune: th})
		if plain.Len() != ext.Len() {
			return false
		}
		a := plain.Test(block)
		b := ext.Test(block)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfidencePruningShrinksRuleSet(t *testing.T) {
	var block trace.Block
	g := 0
	add := func(n int, src, rep trace.HostID) {
		for i := 0; i < n; i++ {
			g++
			block = append(block, ipair(g, src, rep, 0))
		}
	}
	// Source 1: 80% to 10, 20% to 11. Both clear support 10.
	add(40, 1, 10)
	add(10, 1, 11)
	base := GenerateExtRuleSet(block, GenOptions{Prune: 10})
	conf := GenerateExtRuleSet(block, GenOptions{Prune: 10, MinConfidence: 0.5})
	if base.Len() != 2 {
		t.Fatalf("base rules = %d", base.Len())
	}
	if conf.Len() != 1 {
		t.Fatalf("confidence-pruned rules = %d", conf.Len())
	}
	// The surviving rule is the high-confidence one.
	res := conf.Test(trace.Block{ipair(999, 1, 10, 0)})
	if res.Successful != 1 {
		t.Fatal("high-confidence rule missing")
	}
}

func TestConfidencePruningMonotone(t *testing.T) {
	f := func(raw []uint16, confRaw uint8) bool {
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = ipair(i, trace.HostID(r%4+1), trace.HostID(r%5+10), 0)
		}
		prev := -1
		for _, mc := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			n := GenerateExtRuleSet(block, GenOptions{Prune: 2, MinConfidence: mc}).Len()
			if prev >= 0 && n > prev {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterestDimensionSeparatesTopics(t *testing.T) {
	var block trace.Block
	g := 0
	add := func(n int, src, rep trace.HostID, in trace.InterestID) {
		for i := 0; i < n; i++ {
			g++
			block = append(block, ipair(g, src, rep, in))
		}
	}
	// Source 1 asks two topics answered by different neighbors.
	add(20, 1, 10, 0)
	add(20, 1, 11, 1)
	plain := GenerateExtRuleSet(block, GenOptions{Prune: 10})
	byTopic := GenerateExtRuleSet(block, GenOptions{Prune: 10, UseInterest: true})

	// A topic-0 query answered via 11 (the topic-1 provider): the plain
	// rule set counts it successful (it has a {1}->{11} rule), the
	// interest-aware one correctly does not.
	probe := trace.Block{ipair(900, 1, 11, 0)}
	if plain.Test(probe).Successful != 1 {
		t.Fatal("plain rules should match any learned consequent")
	}
	if byTopic.Test(probe).Successful != 0 {
		t.Fatal("interest rules must separate topics")
	}
	// The right consequent for topic 0 still succeeds.
	if byTopic.Test(trace.Block{ipair(901, 1, 10, 0)}).Successful != 1 {
		t.Fatal("interest rule for topic 0 missing")
	}
}

func TestSlidingExtPolicyRuns(t *testing.T) {
	p := &SlidingExt{Opts: GenOptions{Prune: 2, UseInterest: true, MinConfidence: 0.1}}
	if p.Name() != "sliding+interest+conf" {
		t.Fatalf("name = %q", p.Name())
	}
	blocks := stableBlocks(5, 10)
	var tested int
	for _, b := range blocks {
		if p.Step(b).Tested {
			tested++
		}
	}
	if tested != 4 {
		t.Fatalf("tested = %d", tested)
	}
	// Stable trace: perfect quality.
	res := p.Step(stableBlocks(1, 10)[0])
	if res.Result.Coverage() != 1 || res.Result.Success() != 1 {
		t.Fatalf("stable ext result = %+v", res.Result)
	}
}

func TestSlidingExtNames(t *testing.T) {
	cases := map[string]GenOptions{
		"sliding-ext":      {Prune: 1},
		"sliding+conf":     {Prune: 1, MinConfidence: 0.1},
		"sliding+interest": {Prune: 1, UseInterest: true},
	}
	for want, opts := range cases {
		if got := (&SlidingExt{Opts: opts}).Name(); got != want {
			t.Fatalf("name for %+v = %q, want %q", opts, got, want)
		}
	}
}
