package core

import (
	"arq/internal/trace"
)

// GenOptions extends rule generation with the refinements §VI proposes:
// confidence-based pruning ("could be one way of reducing the size of rule
// sets while retaining high coverage and success") and adding the query
// string as a rule dimension ("adding dimensions such as the query strings
// during rule generation ... could also aid in increasing the quality of
// the rule sets").
type GenOptions struct {
	// Prune is the support-pruning threshold (>= 1).
	Prune int
	// MinConfidence drops rules whose confidence — pairs(src, rep) over
	// all pairs from src — falls below it. 0 disables.
	MinConfidence float64
	// UseInterest makes the antecedent (source, interest) instead of
	// source alone, so different query topics from the same neighbor can
	// route to different consequents.
	UseInterest bool
}

// anteKey is the antecedent of an extended rule; Interest is -1 when the
// interest dimension is unused.
type anteKey struct {
	Src      trace.HostID
	Interest trace.InterestID
}

// ExtRuleSet is a rule set generated with GenOptions. It scores blocks
// with the same coverage/success measures as RuleSet.
type ExtRuleSet struct {
	opts   GenOptions
	byAnte map[anteKey]map[trace.HostID]int
	count  int
}

func (rs *ExtRuleSet) key(p trace.Pair) anteKey {
	if rs.opts.UseInterest {
		return anteKey{Src: p.Source, Interest: p.Interest}
	}
	return anteKey{Src: p.Source, Interest: -1}
}

// GenerateExtRuleSet mines rules from a block under the extended options.
func GenerateExtRuleSet(block trace.Block, opts GenOptions) *ExtRuleSet {
	if opts.Prune < 1 {
		opts.Prune = 1
	}
	rs := &ExtRuleSet{opts: opts, byAnte: make(map[anteKey]map[trace.HostID]int)}
	counts := make(map[anteKey]map[trace.HostID]int)
	anteTotal := make(map[anteKey]int)
	for _, p := range block {
		k := rs.key(p)
		m := counts[k]
		if m == nil {
			m = make(map[trace.HostID]int)
			counts[k] = m
		}
		m[p.Replier]++
		anteTotal[k]++
	}
	for k, m := range counts {
		for rep, c := range m {
			if c < opts.Prune {
				continue
			}
			if opts.MinConfidence > 0 {
				conf := float64(c) / float64(anteTotal[k])
				if conf < opts.MinConfidence {
					continue
				}
			}
			dst := rs.byAnte[k]
			if dst == nil {
				dst = make(map[trace.HostID]int)
				rs.byAnte[k] = dst
			}
			dst[rep] = c
			rs.count++
		}
	}
	return rs
}

// Len returns the number of rules.
func (rs *ExtRuleSet) Len() int { return rs.count }

// Test evaluates the rule set over a block with the §III-B.2 measures,
// using the extended antecedent.
func (rs *ExtRuleSet) Test(block trace.Block) TestResult {
	return evalBlock(block,
		func(p *trace.Pair) bool { return len(rs.byAnte[rs.key(*p)]) > 0 },
		func(p *trace.Pair) bool { return rs.byAnte[rs.key(*p)][p.Replier] > 0 }, nil)
}

// SlidingExt is the Sliding Window policy over extended rule generation:
// identical maintenance schedule, richer rules. Comparing it against plain
// Sliding isolates the effect of confidence pruning and of the interest
// dimension (the §VI ablations).
type SlidingExt struct {
	Opts GenOptions
	// prev is a copy of the previous block in a buffer the policy owns:
	// (source, interest) does not pack into a PairKey, so rules regenerate
	// from the block itself where the plain policies keep a BlockDelta.
	prev    trace.Block
	started bool
}

// Name implements Policy.
func (s *SlidingExt) Name() string {
	switch {
	case s.Opts.UseInterest && s.Opts.MinConfidence > 0:
		return "sliding+interest+conf"
	case s.Opts.UseInterest:
		return "sliding+interest"
	case s.Opts.MinConfidence > 0:
		return "sliding+conf"
	default:
		return "sliding-ext"
	}
}

// Step implements Policy.
func (s *SlidingExt) Step(block trace.Block) StepResult {
	if !s.started {
		s.started = true
		s.prev = append(s.prev[:0], block...)
		return StepResult{}
	}
	rs := GenerateExtRuleSet(s.prev, s.Opts)
	res := rs.Test(block)
	s.prev = append(s.prev[:0], block...)
	return StepResult{Tested: true, Result: res, Regenerated: true, Rules: rs.Len()}
}
