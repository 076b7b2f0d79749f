package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"arq/internal/trace"
	"arq/internal/tracegen"
)

// stableBlocks builds a drift-free stream: sources 1..3 always answered by
// repliers 11..13 respectively, many times per block.
func stableBlocks(nBlocks, perRule int) []trace.Block {
	var blocks []trace.Block
	g := 0
	for b := 0; b < nBlocks; b++ {
		var blk trace.Block
		for src := trace.HostID(1); src <= 3; src++ {
			for i := 0; i < perRule; i++ {
				g++
				blk = append(blk, pair(g, src, src+10))
			}
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// shiftedBlocks changes every source and replier identity at each block, so
// rules from one block never apply to the next.
func shiftedBlocks(nBlocks, perRule int) []trace.Block {
	var blocks []trace.Block
	g := 0
	for b := 0; b < nBlocks; b++ {
		var blk trace.Block
		base := trace.HostID(1000 * (b + 1))
		for s := trace.HostID(0); s < 3; s++ {
			for i := 0; i < perRule; i++ {
				g++
				blk = append(blk, pair(g, base+s, base+s+10))
			}
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

func runPolicy(p Policy, blocks []trace.Block) (results []StepResult) {
	for _, b := range blocks {
		results = append(results, p.Step(b))
	}
	return results
}

func testedOnly(results []StepResult) []StepResult {
	var out []StepResult
	for _, r := range results {
		if r.Tested {
			out = append(out, r)
		}
	}
	return out
}

func TestAllPoliciesWarmUpOnFirstBlock(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Step(stableBlocks(1, 5)[0])
		if res.Tested {
			t.Fatalf("%s tested its warm-up block", name)
		}
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("nope", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestNewPolicyCoversEveryName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, 3)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	// wide must come with a usable default width, not collapse to width 1.
	p, err := NewPolicy("wide", 3)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := p.(*Sliding)
	if !ok {
		t.Fatalf("NewPolicy(wide) = %T", p)
	}
	if w.Width != DefaultWideWidth || w.Width < 2 {
		t.Fatalf("wide default width = %d, want %d (>= 2)", w.Width, DefaultWideWidth)
	}
	if w.Prune != 3 {
		t.Fatalf("wide prune = %d, want 3", w.Prune)
	}
}

func TestPoliciesPerfectOnStableTrace(t *testing.T) {
	for _, name := range PolicyNames() {
		p, _ := NewPolicy(name, 2)
		results := testedOnly(runPolicy(p, stableBlocks(8, 10)))
		if len(results) != 7 {
			t.Fatalf("%s tested %d blocks, want 7", name, len(results))
		}
		for i, r := range results {
			if r.Result.Coverage() != 1 {
				t.Fatalf("%s block %d coverage = %v on stable trace",
					name, i, r.Result.Coverage())
			}
			if r.Result.Success() != 1 {
				t.Fatalf("%s block %d success = %v on stable trace",
					name, i, r.Result.Success())
			}
		}
	}
}

func TestStaticDecaysSlidingAdaptsOnShiftedTrace(t *testing.T) {
	static, _ := NewPolicy("static", 2)
	sres := testedOnly(runPolicy(static, shiftedBlocks(6, 10)))
	for i, r := range sres {
		if r.Result.Coverage() != 0 {
			t.Fatalf("static block %d coverage = %v on shifted trace", i, r.Result.Coverage())
		}
	}
	// Sliding also fails on a fully-shifted trace (the previous block never
	// predicts the next), which is exactly why it must win on *partially*
	// drifting traces — verified by the calibration tests in tracegen.
	sliding, _ := NewPolicy("sliding", 2)
	slres := testedOnly(runPolicy(sliding, shiftedBlocks(6, 10)))
	for _, r := range slres {
		if !r.Regenerated {
			t.Fatal("sliding must regenerate every tested block")
		}
	}
}

func TestLazyRegenerationCadence(t *testing.T) {
	l := &Lazy{Prune: 2, Interval: 3}
	results := runPolicy(l, stableBlocks(11, 5))
	var regens []int
	for i, r := range results {
		if r.Regenerated {
			regens = append(regens, i)
		}
	}
	// Initial build at block 0, then after every 3rd tested block:
	// tested blocks are 1..10, regen after 3, 6, 9.
	want := []int{0, 3, 6, 9}
	if len(regens) != len(want) {
		t.Fatalf("regens at %v, want %v", regens, want)
	}
	for i := range want {
		if regens[i] != want[i] {
			t.Fatalf("regens at %v, want %v", regens, want)
		}
	}
}

func TestLazyDefaultInterval(t *testing.T) {
	l := &Lazy{Prune: 1}
	results := runPolicy(l, stableBlocks(12, 3))
	count := 0
	for _, r := range results[1:] {
		if r.Regenerated {
			count++
		}
	}
	if count != 1 { // only after the 10th tested block
		t.Fatalf("default-interval regens = %d, want 1", count)
	}
}

func TestAdaptiveRegeneratesOnQualityDrop(t *testing.T) {
	a := &Adaptive{Prune: 2, Window: 5, Init: 0.7}
	// Warm up + a few perfect blocks to raise the thresholds.
	good := stableBlocks(4, 10)
	for _, b := range good {
		a.Step(b)
	}
	// A shifted block must trigger regeneration.
	bad := shiftedBlocks(1, 10)[0]
	res := a.Step(bad)
	if !res.Tested || !res.Regenerated {
		t.Fatalf("adaptive did not regenerate on drop: %+v", res)
	}
	if res.Result.Coverage() != 0 {
		t.Fatalf("shifted block should be uncovered, got %v", res.Result.Coverage())
	}
}

func TestAdaptiveDoesNotRegenerateWhileHealthy(t *testing.T) {
	a := &Adaptive{Prune: 2, Window: 5, Init: 0.7}
	results := runPolicy(a, stableBlocks(10, 10))
	for i, r := range results[1:] {
		if r.Regenerated {
			t.Fatalf("adaptive regenerated at healthy block %d", i+1)
		}
	}
}

func TestIncrementalAdaptsWithinTrace(t *testing.T) {
	in := &Incremental{}
	// Shifted trace: identities change per block, but the incremental
	// policy picks new pairs up mid-block, so coverage/success recover
	// within each block instead of staying at zero.
	results := testedOnly(runPolicy(in, shiftedBlocks(5, 200)))
	for i, r := range results {
		if r.Result.Coverage() < 0.9 {
			t.Fatalf("incremental coverage at block %d = %v, want >= 0.9",
				i, r.Result.Coverage())
		}
		if r.Result.Success() < 0.9 {
			t.Fatalf("incremental success at block %d = %v, want >= 0.9",
				i, r.Result.Success())
		}
	}
}

func TestIncrementalTestThenTrain(t *testing.T) {
	// A pair never seen before must not count as covered on its own
	// first appearance, even though training happens in the same Step.
	in := &Incremental{}
	in.Step(trace.Block{}) // consume warm-up on an empty block
	blk := trace.Block{pair(1, 42, 52), pair(2, 42, 52), pair(3, 42, 52)}
	res := in.Step(blk)
	if !res.Tested {
		t.Fatal("expected tested step")
	}
	// First query: uncovered (count 0). Second: count 1 < threshold 2,
	// still uncovered. Third: count 2 >= 2, covered and successful.
	if res.Result.N != 3 || res.Result.Covered != 1 || res.Result.Successful != 1 {
		t.Fatalf("result = %+v", res.Result)
	}
}

func TestIncrementalDecayExpiresRules(t *testing.T) {
	in := &Incremental{Decay: 0.5, Threshold: 2}
	in.Step(trace.Block{pair(1, 1, 10), pair(2, 1, 10), pair(3, 1, 10), pair(4, 1, 10)})
	if in.idx.active != 1 {
		t.Fatalf("rule count after training = %d", in.idx.active)
	}
	// Several empty blocks decay the count 4 -> 2 -> 1 -> 0.5 ...
	in.Step(trace.Block{})
	in.Step(trace.Block{})
	if in.idx.active != 0 {
		t.Fatalf("rule survived decay: count = %d", in.idx.active)
	}
}

func TestSlidingUsesPreviousBlockOnly(t *testing.T) {
	s := &Sliding{Prune: 2}
	b1 := trace.Block{pair(1, 1, 10), pair(2, 1, 10)}
	b2 := trace.Block{pair(3, 2, 20), pair(4, 2, 20)}
	b3 := trace.Block{pair(5, 1, 10), pair(6, 2, 20)}
	s.Step(b1)
	s.Step(b2)
	res := s.Step(b3) // rules from b2 only: {2}->{20}
	if res.Result.N != 2 || res.Result.Covered != 1 || res.Result.Successful != 1 {
		t.Fatalf("result = %+v", res.Result)
	}
}

func TestWideWidthOneEqualsSliding(t *testing.T) {
	blocks := shiftedBlocks(6, 12)
	w := &Sliding{Prune: 3, Width: 1}
	s := &Sliding{Prune: 3}
	if w.Name() != "sliding" || s.Name() != "sliding" || (&Sliding{Width: 2}).Name() != "wide" {
		t.Fatalf("names: width 1 %q, width 0 %q, width 2 %q", w.Name(), s.Name(), (&Sliding{Width: 2}).Name())
	}
	for i, b := range blocks {
		rw := w.Step(b)
		rs := s.Step(b)
		if rw.Tested != rs.Tested || rw.Result != rs.Result || rw.Rules != rs.Rules {
			t.Fatalf("block %d: width 1 %+v vs width 0 %+v", i, rw, rs)
		}
	}
}

func TestWideKeepsBoundedHistory(t *testing.T) {
	w := &Sliding{Prune: 2, Width: 3}
	blocks := stableBlocks(10, 5)
	for _, b := range blocks {
		w.Step(b)
	}
	if len(w.ring) > 3 {
		t.Fatalf("history = %d block deltas, want <= 3", len(w.ring))
	}
	// The pooled index must hold exactly the pairs of the retained window:
	// 3 blocks x 3 distinct pairs.
	if w.idx.counts.Len() != 3 {
		t.Fatalf("index tracks %d pairs, want 3", w.idx.counts.Len())
	}
	if got := w.idx.Support(1, 11); got != 15 {
		t.Fatalf("pooled support = %v, want 15 (3 blocks x 5)", got)
	}
}

func TestWideAggregatesSupportAcrossBlocks(t *testing.T) {
	// A pair appearing 3 times per block clears threshold 5 only when two
	// blocks are pooled.
	mk := func() trace.Block {
		var b trace.Block
		for i := 0; i < 3; i++ {
			b = append(b, pair(100+i, 1, 10))
		}
		return b
	}
	narrow := &Sliding{Prune: 5, Width: 1}
	wide := &Sliding{Prune: 5, Width: 2}
	for i := 0; i < 3; i++ {
		nres := narrow.Step(mk())
		wres := wide.Step(mk())
		if i == 2 {
			if nres.Result.Successful != 0 {
				t.Fatal("width-1 should miss the sub-threshold pair")
			}
			if wres.Result.Successful == 0 {
				t.Fatal("width-2 should pool support across blocks")
			}
		}
	}
}

func ipair(guid int, src, rep trace.HostID, in trace.InterestID) trace.Pair {
	return trace.Pair{GUID: trace.GUID(guid), Source: src, Replier: rep, Interest: in}
}

// mined is what the policy s, not yet stepped, mines from gen and scores
// on probe: Rules is the size of the rule set from gen alone.
func mined(s Sliding, gen, probe trace.Block) StepResult {
	s.Step(gen)
	return s.Step(probe)
}

// With no refinement that bites, Sliding is GENERATE-RULESET then
// RULESET-TEST, whichever code path it takes: no refinement set, a
// confidence floor every rule clears, and an interest dimension over a
// block with one interest.
func TestExtMatchesPlainWithoutOptions(t *testing.T) {
	f := func(raw []uint16, thRaw uint8) bool {
		th := int(thRaw%5) + 1
		gen, probe := make(trace.Block, len(raw)), make(trace.Block, len(raw))
		for i, r := range raw {
			gen[i] = ipair(i, trace.HostID(r%6+1), trace.HostID(r%4+10), 3)
			probe[i] = ipair(i/2, trace.HostID(r/5%7+1), trace.HostID(r/3%4+10), 3)
		}
		rs := GenerateRuleSet(gen, th)
		want := StepResult{Tested: true, Result: rs.Test(probe), Regenerated: true, Rules: rs.Len()}
		for _, s := range []Sliding{
			{Prune: th},
			{Prune: th, MinConfidence: math.SmallestNonzeroFloat64},
			{Prune: th, UseInterest: true},
		} {
			if mined(s, gen, probe) != want {
				return false
			}
		}
		return true
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
	probe := trace.Block{ipair(998, 1, 11, 0), ipair(999, 1, 10, 0)}
	if base := mined(Sliding{Prune: 10}, block, probe); base.Rules != 2 || base.Result.Successful != 2 {
		t.Fatalf("base = %+v", base)
	}
	// The surviving rule is the high-confidence one.
	if conf := mined(Sliding{Prune: 10, MinConfidence: 0.5}, block, probe); conf.Rules != 1 || conf.Result.Successful != 1 {
		t.Fatalf("confidence-pruned = %+v", conf)
	}
	// Confidence is over every pair of the antecedent, the ones below the
	// support threshold included: 40 of 50 is 0.8 at any Prune.
	if conf := mined(Sliding{Prune: 20, MinConfidence: 0.81}, block, probe); conf.Rules != 0 {
		t.Fatalf("pruned pairs left out of the antecedent's total: %+v", conf)
	}
}

func TestConfidencePruningMonotone(t *testing.T) {
	f := func(raw []uint16, useInterest bool) bool {
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = ipair(i, trace.HostID(r%4+1), trace.HostID(r%5+10), trace.InterestID(r%2))
		}
		prev := -1
		for _, mc := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			n := mined(Sliding{Prune: 2, MinConfidence: mc, UseInterest: useInterest}, block, nil).Rules
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
	plain, byTopic := Sliding{Prune: 10}, Sliding{Prune: 10, UseInterest: true}

	// A topic-0 query answered via 11 (the topic-1 provider): the plain
	// rule set counts it successful (it has a {1}->{11} rule), the
	// interest-aware one correctly does not.
	probe := trace.Block{ipair(900, 1, 11, 0)}
	if mined(plain, block, probe).Result.Successful != 1 {
		t.Fatal("plain rules should match any learned consequent")
	}
	if res := mined(byTopic, block, probe).Result; res.Covered != 1 || res.Successful != 0 {
		t.Fatalf("interest rules must separate topics: %+v", res)
	}
	// The right consequent for topic 0 still succeeds.
	if mined(byTopic, block, trace.Block{ipair(901, 1, 10, 0)}).Result.Successful != 1 {
		t.Fatal("interest rule for topic 0 missing")
	}
	// A topic or a source the window never saw is uncovered: it has no
	// antecedent id, and the id 0 its lookup reads belongs to no antecedent
	// (the first one interned must not get it).
	unseen := trace.Block{ipair(902, 1, 10, 7), ipair(903, 2, 10, 0), ipair(904, 0, 10, 0)}
	if res := mined(byTopic, block, unseen).Result; res.N != 3 || res.Covered != 0 {
		t.Fatalf("unseen antecedents: %+v", res)
	}
}

func TestSlidingExtPolicyRuns(t *testing.T) {
	p := &Sliding{Prune: 2, UseInterest: true, MinConfidence: 0.1}
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
		t.Fatalf("stable refined result = %+v", res.Result)
	}
}

func TestSlidingExtNames(t *testing.T) {
	for want, s := range map[string]Sliding{
		"sliding":               {Prune: 1},
		"sliding+conf":          {Prune: 1, MinConfidence: 0.1},
		"sliding+interest":      {Prune: 1, UseInterest: true},
		"sliding+interest+conf": {Prune: 1, UseInterest: true, MinConfidence: 0.1},
		"wide+interest":         {Prune: 1, UseInterest: true, Width: 2},
	} {
		if got := s.Name(); got != want {
			t.Fatalf("name for %+v = %q, want %q", s, got, want)
		}
	}
}

// interestBlocks draws n paper-profile blocks; their (source, interest)
// antecedents come and go as neighbors churn.
func interestBlocks(n, size int) []trace.Block {
	cfg := tracegen.PaperProfile()
	cfg.Seed = 5
	cfg.BlockSize = size
	cfg.TotalBlocks = n
	src := tracegen.New(cfg)
	var blocks []trace.Block
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		blocks = append(blocks, slices.Clone(b))
	}
	return blocks
}

// TestSlidingInterestEqualsRekeyedRegeneration: Sliding{Width: 3,
// UseInterest} is, block by block, GENERATE-RULESET over the three pooled
// previous blocks with every (source, interest) re-keyed as a host of its
// own by a table that never forgets, then RULESET-TEST on the next. And
// its own table does forget: at every step it holds exactly the
// antecedents of the window's blocks, so over a churning source it is
// bounded by the largest window, not by the trace.
func TestSlidingInterestEqualsRekeyedRegeneration(t *testing.T) {
	const width = 3
	blocks := interestBlocks(200, 1500)
	ids := map[[2]int64]trace.HostID{}
	rekeyed := make([]trace.Block, len(blocks))
	for i, b := range blocks {
		rekeyed[i] = slices.Clone(b)
		for j, p := range b {
			k := [2]int64{int64(p.Source), int64(p.Interest)}
			if ids[k] == 0 {
				ids[k] = trace.HostID(len(ids) + 1)
			}
			rekeyed[i][j].Source = ids[k]
		}
	}
	s := &Sliding{Prune: 3, Width: width, UseInterest: true}
	largest := 0
	for i, b := range blocks {
		got := s.Step(b)
		lo := max(0, i+1-width)
		live := map[trace.HostID]bool{}
		for _, p := range slices.Concat(rekeyed[lo : i+1]...) {
			live[p.Source] = true
		}
		largest = max(largest, len(live))
		if len(s.antes.ids) != len(live) || len(s.antes.refs)-1-len(s.antes.free) != len(live) {
			t.Fatalf("block %d: %d ids (%d slots, %d free) for a window of %d antecedents",
				i, len(s.antes.ids), len(s.antes.refs)-1, len(s.antes.free), len(live))
		}
		if i == 0 {
			continue
		}
		rs := GenerateRuleSet(slices.Concat(rekeyed[max(0, i-width):i]...), 3)
		if want := (StepResult{Tested: true, Result: rs.Test(rekeyed[i]), Regenerated: true, Rules: rs.Len()}); got != want {
			t.Fatalf("block %d: %+v, regenerated from the re-keyed window %+v", i, got, want)
		}
	}
	if len(s.antes.refs)-1 > largest || len(ids) < 2*largest {
		t.Fatalf("%d id slots after %d antecedents in all, largest window %d", len(s.antes.refs)-1, len(ids), largest)
	}
}

// A steady Sliding.Step allocates what the snapshot it builds needs — the
// rule table, the RuleSet, and the key and value arrays of its two
// membership sets — and nothing per pair, per distinct pair or per GUID
// of the 10 000-pair block it tests and folds in.
func TestSlidingStepAllocations(t *testing.T) {
	const snapshotAllocs = 6
	blocks := paperBlocks(4)
	s := &Sliding{Prune: 10}
	for _, b := range blocks {
		s.Step(b)
	}
	i := 0
	if n := pooledAllocs(snapshotAllocs, func() { s.Step(blocks[i%len(blocks)]); i++ }); n > snapshotAllocs {
		t.Errorf("Sliding.Step: %v allocs per %d-pair block, want at most %v", n, len(blocks[0]), snapshotAllocs)
	}
}

// A warm Incremental.Step allocates nothing: the decay sweep, the block
// test and the per-pair training all run on tables that already exist.
func TestIncrementalStepAllocations(t *testing.T) {
	blocks := paperBlocks(4)
	in := &Incremental{}
	for i := 0; i < 3*len(blocks); i++ { // the same pairs again: the count table has its final size
		in.Step(blocks[i%len(blocks)])
	}
	i := 0
	if n := pooledAllocs(0, func() { in.Step(blocks[i%len(blocks)]); i++ }); n != 0 {
		t.Errorf("Incremental.Step on a %d-pair block: %v allocs per call, want 0", len(blocks[0]), n)
	}
}

var benchStep StepResult

func BenchmarkPolicyStep(b *testing.B) {
	blocks := paperBlocks(8)
	for _, name := range []string{"static", "sliding", "lazy", "adaptive", "incremental"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name, 10)
			if err != nil {
				b.Fatal(err)
			}
			p.Step(blocks[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchStep = p.Step(blocks[1+i%(len(blocks)-1)])
			}
		})
	}
}
