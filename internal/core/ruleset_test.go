package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"arq/internal/stats"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

func pair(guid int, src, rep trace.HostID) trace.Pair {
	return trace.Pair{GUID: trace.GUID(guid), Source: src, Replier: rep}
}

func TestGenerateRuleSetPrunes(t *testing.T) {
	var block trace.Block
	g := 0
	add := func(n int, src, rep trace.HostID) {
		for i := 0; i < n; i++ {
			g++
			block = append(block, pair(g, src, rep))
		}
	}
	add(5, 1, 10)
	add(2, 1, 11)
	add(3, 2, 10)
	rs := GenerateRuleSet(block, 3)
	if rs.Len() != 2 {
		t.Fatalf("rules = %d, want 2", rs.Len())
	}
	if !rs.matches(1, 10) || !rs.matches(2, 10) {
		t.Fatal("expected rules missing")
	}
	if rs.matches(1, 11) {
		t.Fatal("pruned rule present")
	}
	if rs.Support(1, 10) != 5 || rs.Support(1, 11) != 0 {
		t.Fatalf("support = %v, pruned %v", rs.Support(1, 10), rs.Support(1, 11))
	}
}

func TestGenerateRuleSetThresholdMonotone(t *testing.T) {
	// Property: raising the prune threshold never adds rules.
	f := func(raw []uint16) bool {
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = pair(i, trace.HostID(r%5+1), trace.HostID(r%3+10))
		}
		prev := -1
		for th := 1; th <= 6; th++ {
			n := GenerateRuleSet(block, th).Len()
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

// ruleOracle is GENERATE-RULESET recounted independently of the engine:
// nested maps, one increment per pair, pruned at th. Rules here are
// 1 -> 1, so this is all of Apriori that can apply (frequent 2-itemsets
// of one source item and one replier item).
func ruleOracle(block trace.Block, th int) map[trace.HostID]map[trace.HostID]int {
	counts := map[trace.HostID]map[trace.HostID]int{}
	for _, p := range block {
		if counts[p.Source] == nil {
			counts[p.Source] = map[trace.HostID]int{}
		}
		counts[p.Source][p.Replier]++
	}
	for src, m := range counts {
		for rep, c := range m {
			if c < max(th, 1) {
				delete(m, rep)
			}
		}
		if len(m) == 0 {
			delete(counts, src)
		}
	}
	return counts
}

func TestGenerateRuleSetMatchesApriori(t *testing.T) {
	f := func(raw []uint16, thRaw uint8) bool {
		th := int(thRaw%5) + 1
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = pair(i, trace.HostID(r%6+1), trace.HostID(r/7%4+1))
		}
		want, n := ruleOracle(block, th), 0
		GenerateRuleSet(block, th).Range(func(k PairKey, support float64) bool {
			n++
			return float64(want[k.Source()][k.Replier()]) == support
		})
		for _, m := range want {
			n -= len(m)
		}
		return n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRuleSetMatchesMapOracle holds every read of the runs-backed RuleSet
// equal to the map-count oracle on random blocks and thresholds: Len,
// every Support (a pruned and an unseen pair included), Consequents in
// order with ties (few repliers, so equal supports are common) and at
// every k, Covers, Matches.
func TestRuleSetMatchesMapOracle(t *testing.T) {
	f := func(raw []uint16, thRaw uint8) bool {
		th := int(thRaw % 6) // 0 is treated as 1
		block := make(trace.Block, len(raw))
		for i, r := range raw {
			block[i] = pair(i, trace.HostID(r%7+1), trace.HostID(r/7%5+1))
		}
		rs, want, n := GenerateRuleSet(block, th), ruleOracle(block, th), 0
		for src := trace.HostID(0); src <= 8; src++ {
			m := want[src]
			n += len(m)
			var order []trace.HostID
			for rep := trace.HostID(0); rep <= 6; rep++ {
				if rs.Support(src, rep) != float64(m[rep]) || rs.matches(src, rep) != (m[rep] > 0) {
					return false
				}
				if m[rep] > 0 {
					order = append(order, rep)
				}
			}
			sort.SliceStable(order, func(i, j int) bool { return m[order[i]] > m[order[j]] })
			if rs.covers(src) != (len(m) > 0) || len(rs.run(src)) != len(m) {
				return false
			}
			for k := 0; k <= len(order)+1; k++ {
				top := order
				if k > 0 && k < len(order) {
					top = order[:k]
				}
				if !slices.Equal(rs.Consequents(src, k), top) {
					return false
				}
			}
		}
		return rs.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConsequentsTopK(t *testing.T) {
	var block trace.Block
	g := 0
	add := func(n int, src, rep trace.HostID) {
		for i := 0; i < n; i++ {
			g++
			block = append(block, pair(g, src, rep))
		}
	}
	add(5, 1, 10)
	add(3, 1, 11)
	add(8, 1, 12)
	add(3, 1, 13) // ties with 11; HostID 11 wins the tiebreak
	rs := GenerateRuleSet(block, 1)
	got := rs.Consequents(1, 3)
	if len(got) != 3 || got[0] != 12 || got[1] != 10 || got[2] != 11 {
		t.Fatalf("top-3 = %v", got)
	}
	if all := rs.Consequents(1, 0); len(all) != 4 {
		t.Fatalf("all consequents = %v", all)
	}
	if rs.Consequents(99, 2) != nil {
		t.Fatal("unknown antecedent should yield nil")
	}
}

func TestAntecedentsSorted(t *testing.T) {
	block := trace.Block{pair(1, 5, 10), pair(2, 2, 10), pair(3, 9, 11)}
	var a []trace.HostID
	GenerateRuleSet(block, 1).Range(func(k PairKey, _ float64) bool {
		a = append(a, k.Source())
		return true
	})
	if len(a) != 3 || a[0] != 2 || a[1] != 5 || a[2] != 9 {
		t.Fatalf("antecedents = %v", a)
	}
}

func TestTestResultMeasures(t *testing.T) {
	gen := trace.Block{
		pair(1, 1, 10), pair(2, 1, 10), // rule {1}->{10}
		pair(3, 2, 20), pair(4, 2, 20), // rule {2}->{20}
	}
	rs := GenerateRuleSet(gen, 2)
	test := trace.Block{
		pair(10, 1, 10), // covered + successful
		pair(11, 1, 99), // covered, unsuccessful
		pair(12, 2, 20), // covered + successful
		pair(13, 3, 10), // uncovered
	}
	res := rs.Test(test)
	if res.N != 4 || res.Covered != 3 || res.Successful != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Coverage() != 0.75 {
		t.Fatalf("coverage = %v", res.Coverage())
	}
	if suc := res.Success(); suc < 0.666 || suc > 0.667 {
		t.Fatalf("success = %v", suc)
	}
}

func TestTestDedupesByGUID(t *testing.T) {
	gen := trace.Block{pair(1, 1, 10), pair(2, 1, 10)}
	rs := GenerateRuleSet(gen, 2)
	// One query (single GUID) with three replies: one matching.
	test := trace.Block{
		{GUID: 7, Source: 1, Replier: 99},
		{GUID: 7, Source: 1, Replier: 10},
		{GUID: 7, Source: 1, Replier: 98},
	}
	res := rs.Test(test)
	if res.N != 1 || res.Covered != 1 || res.Successful != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestMeasuresInUnitRange(t *testing.T) {
	f := func(genRaw, testRaw []uint16, th uint8) bool {
		mk := func(raw []uint16) trace.Block {
			b := make(trace.Block, len(raw))
			for i, r := range raw {
				b[i] = pair(i, trace.HostID(r%7+1), trace.HostID(r%4+10))
			}
			return b
		}
		rs := GenerateRuleSet(mk(genRaw), int(th%6)+1)
		res := rs.Test(mk(testRaw))
		cov, suc := res.Coverage(), res.Success()
		return cov >= 0 && cov <= 1 && suc >= 0 && suc <= 1 &&
			res.Covered <= res.N && res.Successful <= res.Covered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlockTest(t *testing.T) {
	rs := GenerateRuleSet(nil, 10)
	res := rs.Test(nil)
	if res.Coverage() != 0 || res.Success() != 0 || res.N != 0 {
		t.Fatalf("empty test = %+v", res)
	}
	if rs.Len() != 0 {
		t.Fatal("empty generation produced rules")
	}
}

func TestRulesSortedAndComplete(t *testing.T) {
	block := trace.Block{
		pair(1, 2, 11), pair(2, 2, 10), pair(3, 1, 12), pair(4, 2, 11),
	}
	var got []RuleEntry
	GenerateRuleSet(block, 1).Range(func(k PairKey, support float64) bool {
		got = append(got, RuleEntry{k, support})
		return true
	})
	// Antecedent ascending, then support descending.
	want := []RuleEntry{{packPair(1, 12), 1}, {packPair(2, 11), 2}, {packPair(2, 10), 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("rules = %v, want %v", got, want)
	}
}

// ruleView is what the oracle below is driven through: an immutable
// RuleSet, or the incremental policy's rules found by scanning its index
// (decayRef).
type ruleView interface {
	covers(src trace.HostID) bool
	matches(src, replier trace.HostID) bool
}

// evalBlockOracle is the map-based RULESET-TEST loop the flat evaluator
// replaced, kept verbatim as the reference every test below holds
// evalBlock equal to.
func evalBlockOracle(v ruleView, block trace.Block, train func(trace.Pair)) TestResult {
	type state struct {
		covered, successful bool
	}
	seen := make(map[trace.GUID]*state, len(block))
	var res TestResult
	for _, p := range block {
		st := seen[p.GUID]
		if st == nil {
			st = &state{covered: v.covers(p.Source)}
			seen[p.GUID] = st
			res.N++
			if st.covered {
				res.Covered++
			}
		}
		if st.covered && !st.successful && v.matches(p.Source, p.Replier) {
			st.successful = true
			res.Successful++
		}
		if train != nil {
			train(p)
		}
	}
	return res
}

// setHashMul fixes the flat tables' multiplier for one test. Tables built
// under another multiplier are unreadable afterwards, so callers build
// their rule sets after the call.
func setHashMul(t testing.TB, m uint64) {
	old := hashMul
	hashMul = m | 1
	t.Cleanup(func() { hashMul = old })
}

// guidShapes are the GUID populations the evaluator must not care about:
// multi-reply queries, GUID 0, one GUID for the whole block, and keys
// whose differences sit where a weak hash does not look.
var guidShapes = []struct {
	name string
	guid func(rng *stats.RNG, i, size int) uint64
}{
	{"multi-reply", func(rng *stats.RNG, i, size int) uint64 { return uint64(rng.Intn(size/3 + 1)) }},
	{"random", func(rng *stats.RNG, i, size int) uint64 { return rng.Uint64() }},
	{"all-equal", func(rng *stats.RNG, i, size int) uint64 { return 0xfeedface }},
	{"all-zero", func(rng *stats.RNG, i, size int) uint64 { return 0 }},
	{"sequential", func(rng *stats.RNG, i, size int) uint64 { return uint64(i) }},
	{"above-bit-32", func(rng *stats.RNG, i, size int) uint64 { return uint64(rng.Intn(size/2+1))<<32 | 7 }},
	{"stride-2^40", func(rng *stats.RNG, i, size int) uint64 { return uint64(i/2) << 40 }},
	{"stride-2^k", func(rng *stats.RNG, i, size int) uint64 { return uint64(i/2) << uint(rng.Intn(64)) }},
}

func shapedBlock(rng *stats.RNG, shape, size int) trace.Block {
	b := randomBlock(rng, size)
	for i := range b {
		b[i].GUID = trace.GUID(guidShapes[shape].guid(rng, i, size))
	}
	return b
}

func indexState(x *PairIndex) map[PairKey]float64 {
	m := make(map[PairKey]float64)
	x.Range(func(k PairKey, c float64) bool { m[k] = c; return true })
	return m
}

func activeState(in *Incremental) map[trace.HostID]float64 {
	m := make(map[trace.HostID]float64)
	in.activeBySrc.Range(func(k trace.HostID, c float64) bool { m[k] = c; return true })
	return m
}

// checkEvalAgainstOracle holds every production caller of the RULESET-TEST
// loop equal to the oracle on one block tested after a window of gen:
//
//   - RuleSet.Test against GenerateRuleSet(gen, prune);
//   - Incremental.Step, its decay included, against the oracle training a
//     bare index of its own (decayRef), on prefixes of the block: the
//     result, the rule count, the index and the per-antecedent rule counts
//     left behind after exactly the first m pairs are trained pin what was
//     trained before which pair was scored;
//   - Sliding{UseInterest}'s test against the oracle on the block re-keyed
//     by the window's antecedent ids, and the index the step leaves
//     behind, which is the block counted under the ids it interned.
func checkEvalAgainstOracle(t testing.TB, label string, gen trace.Block, prune int, block trace.Block) {
	t.Helper()
	rs := GenerateRuleSet(gen, prune)
	if got, want := rs.Test(block), evalBlockOracle(rs, block, nil); got != want {
		t.Fatalf("%s: RuleSet.Test = %+v, oracle %+v", label, got, want)
	}

	const decay, threshold = 0.9, 2
	prefixes := []int{0, 1, len(block) / 2, len(block) - 1, len(block)}
	slices.Sort(prefixes)
	for _, m := range slices.Compact(prefixes) {
		if m < 0 || m > len(block) {
			continue
		}
		in := &Incremental{Decay: decay, Threshold: threshold}
		ref := &decayRef{threshold: threshold}
		var got StepResult
		var want TestResult
		for _, b := range []trace.Block{gen, block[:m]} {
			ref.idx.decay(decay, incrementalFloor)
			want = evalBlockOracle(ref, b, func(p trace.Pair) { ref.idx.add(p.Source, p.Replier, 1) })
			got = in.Step(b)
		}
		if want := (StepResult{Tested: true, Result: want, Rules: ref.rules()}); got != want {
			t.Fatalf("%s: Incremental.Step over %d pairs = %+v, oracle %+v", label, m, got, want)
		}
		if !reflect.DeepEqual(indexState(&in.idx), indexState(&ref.idx)) || !reflect.DeepEqual(activeState(in), ref.activeBySrc()) {
			t.Fatalf("%s: Incremental.Step over %d pairs leaves an index other than the oracle's", label, m)
		}
	}

	s := &Sliding{Prune: prune, UseInterest: true}
	s.Step(gen)
	rekey := func(b trace.Block) trace.Block {
		out := slices.Clone(b)
		for i := range out {
			out[i].Source = s.antes.ids[anteOf(&b[i])]
		}
		return out
	}
	srs, rekeyed := s.idx.snapshot(prune, 0), rekey(block)
	want := StepResult{Tested: true, Result: evalBlockOracle(srs, rekeyed, nil), Regenerated: true, Rules: srs.Len()}
	if got := s.Step(block); got != want {
		t.Fatalf("%s: Sliding{UseInterest}.Step = %+v, oracle %+v", label, got, want)
	}
	left := make(map[PairKey]float64)
	for _, p := range rekey(block) {
		left[packPair(p.Source, p.Replier)]++
	}
	if got := indexState(s.idx); !reflect.DeepEqual(got, left) {
		t.Fatalf("%s: Sliding{UseInterest} leaves %v, want %v", label, got, left)
	}
}

// TestEvalBlockMatchesOracle is the evaluator-equivalence property, over
// every GUID shape, block sizes that make the pooled table grow and
// shrink between calls (large then small and the reverse, empty blocks
// between), and multipliers that include the degenerate 1, under which
// small keys all hash to slot 0 — collisions cost time, never answers.
// Pairs carry one of three interests, so the interest-keyed antecedents
// of Sliding{UseInterest} are not the sources renamed.
func TestEvalBlockMatchesOracle(t *testing.T) {
	withInterests := func(rng *stats.RNG, b trace.Block) trace.Block {
		for i := range b {
			b[i].Interest = trace.InterestID(rng.Intn(3))
		}
		return b
	}
	for _, mul := range []uint64{hashMul, 1, 0x9E3779B97F4A7C15, 1<<63 | 1} {
		setHashMul(t, mul)
		rng := stats.NewRNG(mul ^ 17)
		for shape := range guidShapes {
			for _, size := range []int{1500, 3, 0, 700, 1, 0, 2000, 64} {
				gen, prune := withInterests(rng, randomBlock(rng, 200)), 2+rng.Intn(3)
				label := fmt.Sprintf("mul %#x, %s, %d pairs", mul, guidShapes[shape].name, size)
				checkEvalAgainstOracle(t, label, gen, prune, withInterests(rng, shapedBlock(rng, shape, size)))
			}
		}
	}
}

// FuzzEvaluateBlock turns bytes into a block over small GUID, host and
// interest alphabets (three bytes a pair; the GUID is four bits of value
// shifted by up to 60), generates from its first half and holds every
// production caller of the loop equal to the oracle on the second half:
// RuleSet.Test, Incremental.Step and Sliding{UseInterest}.
func FuzzEvaluateBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 1, 2, 0x01, 1, 2, 0x01, 1, 3, 0xf1, 1, 2, 0x00, 2, 2, 0x00, 1, 2})
	f.Add(bytes.Repeat([]byte{0x37, 5, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		block := make(trace.Block, len(data)/3)
		for i := range block {
			g, s, r := data[3*i], data[3*i+1], data[3*i+2]
			block[i] = trace.Pair{
				GUID:     trace.GUID(uint64(g&15) << (4 * uint(g>>4))),
				Source:   trace.HostID(s%5 + 1),
				Replier:  trace.HostID(r%5 + 1),
				Interest: trace.InterestID(r / 5 % 3),
			}
		}
		half := len(block) / 2
		checkEvalAgainstOracle(t, "fuzz", block[:half], 2, block[half:])
	})
}

// fibInverse is the inverse of the Fibonacci-hashing multiplier mod 2^64
// (Newton's iteration doubles the correct low bits each round).
func fibInverse() uint64 {
	const fib = 0x9E3779B97F4A7C15
	inv := uint64(fib)
	for i := 0; i < 6; i++ {
		inv *= 2 - fib*inv
	}
	return inv
}

// TestEvalBlockAdversarialGUIDs is the hostile-but-well-formed input at
// this boundary: 10 000 distinct GUIDs that an unseeded multiply-shift
// hash sends to one slot (every key times the well-known constant is
// below 2^14, so its top bits are zero) would cost a fixed-multiplier
// table ~50 M probes. Under the per-process multiplier they are ordinary
// keys: right answers, and within a small multiple of a random block's
// time. GUIDs i<<40 are the issue's other example.
func TestEvalBlockAdversarialGUIDs(t *testing.T) {
	const size = 10000
	rng := stats.NewRNG(99)
	rs := GenerateRuleSet(randomBlock(rng, 2000), 10)
	mk := func(guid func(i int) uint64) trace.Block {
		b := randomBlock(rng, size)
		for i := range b {
			b[i].GUID = trace.GUID(guid(i))
		}
		return b
	}
	inv := fibInverse()
	crafted := mk(func(i int) uint64 { return uint64(i) * inv })
	for _, p := range crafted {
		if (uint64(p.GUID)*0x9E3779B97F4A7C15)>>49 != 0 {
			t.Fatal("crafted GUIDs do not collide under the unseeded hash")
		}
	}
	fastest := func(block trace.Block) time.Duration {
		if got, want := rs.Test(block), evalBlockOracle(rs, block, nil); got != want {
			t.Fatalf("adversarial block: %+v, oracle %+v", got, want)
		}
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			rs.Test(block)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	base := fastest(mk(func(int) uint64 { return rng.Uint64() }))
	for name, block := range map[string]trace.Block{
		"crafted against the unseeded multiplier": crafted,
		"i<<40": mk(func(i int) uint64 { return uint64(i) << 40 }),
	} {
		if d := fastest(block); d > 8*base+time.Millisecond {
			t.Errorf("%s: %v for a %d-pair block, a random block takes %v", name, d, size, base)
		}
	}
}

// paperBlocks draws n blocks of the paper-profile trace at the
// benchmark's block size.
func paperBlocks(n int) []trace.Block {
	cfg := tracegen.PaperProfile()
	cfg.Seed = 11
	cfg.BlockSize = 10000
	cfg.TotalBlocks = n
	src := tracegen.New(cfg)
	var blocks []trace.Block
	for {
		b, ok := src.Next()
		if !ok {
			return blocks
		}
		blocks = append(blocks, append(trace.Block(nil), b...))
	}
}

// pooledAllocs is what one call of f allocates when every sync.Pool
// returns what was last put: zero, for a block test on a warmed table.
// Under the race detector a Pool drops a quarter of its Puts at random, so
// one measured call in four builds a table of its own; the measurement is
// retried until one allocates no more than want. A call that allocates
// more by itself never reads want or less.
func pooledAllocs(want float64, f func()) float64 {
	n := testing.AllocsPerRun(1, f)
	for try := 0; n > want && try < 40; try++ {
		n = testing.AllocsPerRun(1, f)
	}
	return n
}

// A block test on a warmed table allocates nothing: no per-GUID state, no
// per-call map.
func TestRuleSetTestAllocations(t *testing.T) {
	blocks := paperBlocks(2)
	rs := GenerateRuleSet(blocks[0], 10)
	rs.Test(blocks[1])
	if n := pooledAllocs(0, func() { rs.Test(blocks[1]) }); n != 0 {
		t.Errorf("RuleSet.Test on a %d-pair block: %v allocs per call, want 0", len(blocks[1]), n)
	}
}

var benchResult TestResult

func BenchmarkRuleSetTest(b *testing.B) {
	blocks := paperBlocks(2)
	rs := GenerateRuleSet(blocks[0], 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = rs.Test(blocks[1])
	}
}
