package core

import (
	"fmt"

	"arq/internal/stats"
	"arq/internal/trace"
)

// StepResult reports what a policy did with one block of trace data.
type StepResult struct {
	// Tested is false for warm-up blocks consumed only to build the
	// initial rule set; Result is meaningful only when Tested is true.
	Tested bool
	// Result holds coverage/success of the block test.
	Result TestResult
	// Regenerated reports whether the policy rebuilt its rule set while
	// handling this block (including the initial build).
	Regenerated bool
	// Rules is the size of the rule set in force after this block.
	Rules int
}

// Policy is a rule-set maintenance policy (§III-B.3–6): it consumes trace
// blocks in order and reports per-block quality. Policies are stateful and
// not safe for concurrent use; run one instance per goroutine.
//
// No policy retains the block passed to Step: windowed policies fold it
// into a PairIndex and keep only the resulting BlockDelta, so sources may
// reuse block buffers across calls.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Step processes the next block.
	Step(block trace.Block) StepResult
}

// Static implements STATIC-RULESET (§III-B.3): one rule set is generated
// from the first block and used, unchanged, for every subsequent block.
type Static struct {
	// Prune is the support-pruning threshold (paper default 10).
	Prune int
	rs    *RuleSet
}

// Name implements Policy.
func (s *Static) Name() string { return "static" }

// Step implements Policy.
func (s *Static) Step(block trace.Block) StepResult {
	if s.rs == nil {
		s.rs = GenerateRuleSet(block, s.Prune)
		return StepResult{Regenerated: true, Rules: s.rs.Len()}
	}
	return StepResult{Tested: true, Result: s.rs.Test(block), Rules: s.rs.Len()}
}

// Sliding implements SLIDING-WINDOW (§III-B.4): before testing each block,
// the rule set is regenerated from the pooled counts of the previous Width
// blocks. Width <= 1 is the paper's policy, rules from the immediately
// preceding block; larger widths trade recency for support (an ablation of
// the one-block window choice — §III-B.4 notes larger windows "consider
// more hosts ... meaning some rules may be stale"). The index carries the
// pooled counts across steps — add the newest block's delta, retire the
// oldest — so a step costs O(block) regardless of Width.
//
// MinConfidence and UseInterest are the two refinements §VI proposes, on
// the same maintenance schedule, so a run against plain Sliding isolates
// each (the §VI ablations).
type Sliding struct {
	Prune int
	Width int
	// MinConfidence drops rules whose confidence — the pair's count over
	// the count of all pairs with its antecedent in the window — falls
	// below it ("one way of reducing the size of rule sets while retaining
	// high coverage and success"). 0 disables.
	MinConfidence float64
	// UseInterest makes the antecedent (source, interest) instead of the
	// source alone ("adding dimensions such as the query strings during
	// rule generation"), so different topics from one neighbor can route
	// to different consequents.
	UseInterest bool

	idx   *PairIndex
	ring  []*BlockDelta
	antes anteIDs // UseInterest only
}

// Name implements Policy: "sliding" for the paper's one-block window,
// "wide" for the width ablation, "sliding+..." for the §VI refinements.
func (s *Sliding) Name() string {
	name := "sliding"
	if s.Width > 1 {
		name = "wide"
	}
	if s.UseInterest {
		name += "+interest"
	}
	if s.MinConfidence > 0 {
		name += "+conf"
	}
	return name
}

// Step implements Policy.
func (s *Sliding) Step(block trace.Block) StepResult {
	if s.idx == nil {
		s.idx = NewPairIndex()
	}
	var antes *anteIDs
	if s.UseInterest {
		antes = &s.antes
	}
	if len(s.ring) == 0 {
		s.ring = append(s.ring, s.idx.addBlock(block, antes))
		return StepResult{}
	}
	rs := s.idx.snapshot(s.Prune, s.MinConfidence)
	res := evalBlock(block, blockTest{rs: rs, antes: antes})
	for len(s.ring) >= max(s.Width, 1) {
		if s.UseInterest {
			s.antes.release(s.ring[0])
		}
		s.idx.RemoveBlock(s.ring[0]) // addBlock below reuses its arrays
		s.ring = append(s.ring[:0], s.ring[1:]...)
	}
	s.ring = append(s.ring, s.idx.addBlock(block, antes))
	return StepResult{Tested: true, Result: res, Regenerated: true, Rules: rs.Len()}
}

// anteIDs interns the (source, interest) antecedents of a Sliding window
// as the 32-bit antecedent ids of its PairKeys. An id lives as long as
// some delta of the ring counts a pair under it and is handed out again
// afterwards, so the table is bounded by the window, not by the trace.
// The zero value is an empty table.
type anteIDs struct {
	ids  map[uint64]trace.HostID // source<<32 | interest -> id
	refs []anteRef               // by id; refs[0] is never assigned: id 0 is "no antecedent"
	free []trace.HostID
}

// anteRef is one live id: its antecedent and how many pairs of the window
// carry it.
type anteRef struct {
	ante  uint64
	pairs int32
}

func anteOf(p *trace.Pair) uint64 { return uint64(p.Source)<<32 | uint64(uint32(p.Interest)) }

// intern counts p under its antecedent's id, assigning one at first
// sight.
func (a *anteIDs) intern(p *trace.Pair) trace.HostID {
	ante := anteOf(p)
	id, ok := a.ids[ante]
	if !ok {
		if n := len(a.free); n > 0 {
			id, a.free = a.free[n-1], a.free[:n-1]
		} else {
			if a.ids == nil {
				a.ids, a.refs = make(map[uint64]trace.HostID), make([]anteRef, 1)
			}
			id = trace.HostID(len(a.refs))
			a.refs = append(a.refs, anteRef{})
		}
		a.ids[ante], a.refs[id].ante = id, ante
	}
	a.refs[id].pairs++
	return id
}

// release takes a retired delta's pairs off their antecedents and drops
// the ids nothing in the window counts under any more.
func (a *anteIDs) release(retired *BlockDelta) {
	retired.counts.Range(func(k PairKey, n float64) bool {
		ref := &a.refs[k.Source()]
		if ref.pairs -= int32(n); ref.pairs == 0 {
			delete(a.ids, ref.ante)
			a.free = append(a.free, k.Source())
		}
		return true
	})
}

// Lazy implements LAZY-SLIDING-WINDOW (§III-B.5): a generated rule set is
// reused for Interval consecutive blocks before being regenerated from the
// most recent block. Interval 10 reproduces Fig. 3.
//
// The paper's pseudocode for this policy is corrupted in the published text
// (a GENERATE-RULESET(b−1) appears inside the per-block loop, which would
// make it identical to Sliding); we implement the behaviour its prose and
// Fig. 3 caption describe.
type Lazy struct {
	Prune    int
	Interval int
	idx      *PairIndex
	rs       *RuleSet
	used     int
}

// Name implements Policy.
func (l *Lazy) Name() string { return "lazy" }

func (l *Lazy) regen(block trace.Block) *RuleSet {
	if l.idx == nil {
		l.idx = NewPairIndex()
	}
	return l.idx.rebuild(block, l.Prune)
}

// Step implements Policy.
func (l *Lazy) Step(block trace.Block) StepResult {
	interval := l.Interval
	if interval <= 0 {
		interval = 10
	}
	if l.rs == nil {
		l.rs = l.regen(block)
		return StepResult{Regenerated: true, Rules: l.rs.Len()}
	}
	res := l.rs.Test(block)
	l.used++
	regen := false
	if l.used%interval == 0 {
		l.rs = l.regen(block)
		regen = true
	}
	return StepResult{Tested: true, Result: res, Regenerated: regen, Rules: l.rs.Len()}
}

// Adaptive implements ADAPTIVE-SLIDING-WINDOW (§III-B.6): the current rule
// set is kept until its measured coverage or success falls below adaptive
// thresholds, at which point it is regenerated from the block that exposed
// the shortfall. Each threshold is the mean of the previous Window test
// values (the paper evaluates Window 10 and 50); before any history exists
// the initial threshold Init is used (0.7 in §V-D).
type Adaptive struct {
	Prune  int
	Window int     // history length for threshold calculation
	Init   float64 // threshold used until history accumulates
	idx    *PairIndex
	rs     *RuleSet
	covMM  *stats.MovingMean
	sucMM  *stats.MovingMean
}

// Name implements Policy.
func (a *Adaptive) Name() string { return "adaptive" }

func (a *Adaptive) regen(block trace.Block) *RuleSet {
	if a.idx == nil {
		a.idx = NewPairIndex()
	}
	return a.idx.rebuild(block, a.Prune)
}

// Step implements Policy.
func (a *Adaptive) Step(block trace.Block) StepResult {
	if a.covMM == nil {
		w := a.Window
		if w <= 0 {
			w = 10
		}
		a.covMM = stats.NewMovingMean(w)
		a.sucMM = stats.NewMovingMean(w)
	}
	if a.rs == nil {
		a.rs = a.regen(block)
		return StepResult{Regenerated: true, Rules: a.rs.Len()}
	}
	// Thresholds come from history prior to this block
	// (CALC-*-THRESHOLD(b−1)).
	ct, st := a.Init, a.Init
	if a.covMM.Len() > 0 {
		ct = a.covMM.Mean()
		st = a.sucMM.Mean()
	}
	res := a.rs.Test(block)
	cov, suc := res.Coverage(), res.Success()
	regen := false
	if cov < ct || suc < st {
		a.rs = a.regen(block)
		regen = true
	}
	a.covMM.Add(cov)
	a.sucMM.Add(suc)
	return StepResult{Tested: true, Result: res, Regenerated: regen, Rules: a.rs.Len()}
}

// Incremental implements the paper's future-work policy (§VI): rules are
// updated immediately as query–reply pairs are observed, with no wholesale
// regeneration. It is the decay-mode view of the pair-count engine: counts
// age by Decay at each block boundary so stale pairs drop out, and a
// (source, replier) pair is a rule while its decayed count is at least
// Threshold. Each query is tested against the rule state as of its arrival
// and only then folded in (test-then-train, in the shared block
// evaluator), so the reported coverage/success never peeks at the pair
// being scored.
type Incremental struct {
	Decay     float64 // per-block multiplicative decay, default 0.9
	Threshold float64 // rule-activation count, default 2; fixed at first Step
	idx       *PairIndex
	started   bool
}

// incrementalFloor is the decayed count below which a pair is dropped to
// bound memory.
const incrementalFloor = 0.05

// Name implements Policy.
func (in *Incremental) Name() string { return "incremental" }

func (in *Incremental) params() (decay, threshold float64) {
	decay = in.Decay
	if decay <= 0 || decay > 1 {
		decay = 0.9
	}
	threshold = in.Threshold
	if threshold <= 0 {
		threshold = 2
	}
	return decay, threshold
}

// Step implements Policy.
func (in *Incremental) Step(block trace.Block) StepResult {
	decay, threshold := in.params()
	if in.idx == nil {
		in.idx = newDecayIndex(threshold)
	}
	warmup := !in.started
	in.started = true

	// Age out old observations at the block boundary.
	in.idx.decay(decay, incrementalFloor)

	res := evalBlock(block, blockTest{idx: in.idx})
	if warmup {
		return StepResult{Rules: in.idx.active}
	}
	return StepResult{Tested: true, Result: res, Rules: in.idx.active}
}

// NewPolicy constructs a policy by name with the given prune threshold and
// default parameters; it is the factory the CLIs use. Recognized names:
// static, sliding, wide, lazy, adaptive, incremental.
func NewPolicy(name string, prune int) (Policy, error) {
	switch name {
	case "static":
		return &Static{Prune: prune}, nil
	case "sliding":
		return &Sliding{Prune: prune}, nil
	case "wide":
		return &Sliding{Prune: prune, Width: DefaultWideWidth}, nil
	case "lazy":
		return &Lazy{Prune: prune, Interval: 10}, nil
	case "adaptive":
		return &Adaptive{Prune: prune, Window: 10, Init: 0.7}, nil
	case "incremental":
		return &Incremental{}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}

// DefaultWideWidth is the window width NewPolicy gives the wide policy —
// wide enough to pool support across blocks, narrow enough that rules are
// not dominated by stale hosts (the §III-B.4 staleness remark).
const DefaultWideWidth = 4

// PolicyNames lists every name NewPolicy recognizes, in presentation
// order.
func PolicyNames() []string {
	return []string{"static", "sliding", "wide", "lazy", "adaptive", "incremental"}
}
