package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"arq/internal/assoc"
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
	if !rs.Matches(1, 10) || !rs.Matches(2, 10) {
		t.Fatal("expected rules missing")
	}
	if rs.Matches(1, 11) {
		t.Fatal("pruned rule present")
	}
	if rs.SupportOf(1, 10) != 5 {
		t.Fatalf("support = %d", rs.SupportOf(1, 10))
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

func TestGenerateRuleSetMatchesApriori(t *testing.T) {
	// The 1-antecedent/1-consequent special case must agree exactly with
	// the general Apriori miner run over role-tagged transactions.
	const repOffset = 1 << 16
	f := func(raw []uint16, thRaw uint8) bool {
		th := int(thRaw%5) + 1
		block := make(trace.Block, len(raw))
		txs := make([]assoc.Transaction, len(raw))
		for i, r := range raw {
			src := trace.HostID(r%6 + 1)
			rep := trace.HostID(r/7%4 + 1)
			block[i] = pair(i, src, rep)
			txs[i] = assoc.NewItemset(assoc.Item(src), assoc.Item(int32(rep)+repOffset))
		}
		rs := GenerateRuleSet(block, th)
		want := map[[2]trace.HostID]int{}
		for _, fi := range assoc.Apriori(txs, th, 2) {
			if len(fi.Items) != 2 {
				continue
			}
			// One item must be a source tag, the other a replier tag.
			if fi.Items[0] >= repOffset || fi.Items[1] < repOffset {
				continue
			}
			want[[2]trace.HostID{
				trace.HostID(fi.Items[0]),
				trace.HostID(fi.Items[1] - repOffset),
			}] = fi.Count
		}
		got := map[[2]trace.HostID]int{}
		for _, r := range rs.Rules() {
			got[[2]trace.HostID{r.Antecedent, r.Consequent}] = r.Support
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
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
	rs := GenerateRuleSet(block, 1)
	a := rs.Antecedents()
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
		pair(1, 2, 11), pair(2, 2, 10), pair(3, 1, 12),
	}
	rs := GenerateRuleSet(block, 1)
	rules := rs.Rules()
	if len(rules) != 3 {
		t.Fatalf("rules = %v", rules)
	}
	if rules[0].Antecedent != 1 || rules[1].Consequent != 10 || rules[2].Consequent != 11 {
		t.Fatalf("order = %v", rules)
	}
}

// evalBlockOracle is the map-based RULESET-TEST loop the flat evaluator
// replaced, kept verbatim as the reference every test below holds
// evalBlock equal to.
func evalBlockOracle(v RuleView, block trace.Block, train func(trace.Pair)) TestResult {
	type state struct {
		covered, successful bool
	}
	seen := make(map[trace.GUID]*state, len(block))
	var res TestResult
	for _, p := range block {
		st := seen[p.GUID]
		if st == nil {
			st = &state{covered: v.Covers(p.Source)}
			seen[p.GUID] = st
			res.N++
			if st.covered {
				res.Covered++
			}
		}
		if st.covered && !st.successful && v.Matches(p.Source, p.Replier) {
			st.successful = true
			res.Successful++
		}
		if train != nil {
			train(p)
		}
	}
	return res
}

// evalView runs the flat evaluator against a RuleView with a train hook,
// the way EvaluateBlock does without one.
func evalView(v RuleView, block trace.Block, train func(trace.Pair)) TestResult {
	return evalBlock(block,
		func(p *trace.Pair) bool { return v.Covers(p.Source) },
		func(p *trace.Pair) bool { return v.Matches(p.Source, p.Replier) }, train)
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

func indexesEqual(a, b *PairIndex) bool {
	return reflect.DeepEqual(indexState(a), indexState(b)) &&
		a.Crossings() == b.Crossings() && a.ActiveRules() == b.ActiveRules()
}

// checkEvalAgainstOracle holds the flat evaluator equal to the oracle on
// one block: against an immutable RuleSet, and against a decay index the
// train hook feeds (result, every train call in order, and the index the
// calls leave behind).
func checkEvalAgainstOracle(t testing.TB, label string, rs *RuleSet, block trace.Block) {
	t.Helper()
	want := evalBlockOracle(rs, block, nil)
	if got := rs.Test(block); got != want {
		t.Fatalf("%s: RuleSet.Test = %+v, oracle %+v", label, got, want)
	}
	if got := EvaluateBlock(rs, block); got != want {
		t.Fatalf("%s: EvaluateBlock = %+v, oracle %+v", label, got, want)
	}
	a, b := NewDecayIndex(2), NewDecayIndex(2)
	var ta, tb []trace.Pair
	got := evalView(a, block, func(p trace.Pair) { ta = append(ta, p); a.AddPair(p.Source, p.Replier) })
	want = evalBlockOracle(b, block, func(p trace.Pair) { tb = append(tb, p); b.AddPair(p.Source, p.Replier) })
	if got != want {
		t.Fatalf("%s: test-then-train = %+v, oracle %+v", label, got, want)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: train calls differ from the oracle's", label)
	}
	if !indexesEqual(a, b) {
		t.Fatalf("%s: trained index differs from the oracle's", label)
	}
}

// TestEvalBlockMatchesOracle is the evaluator-equivalence property, over
// every GUID shape, block sizes that make the pooled table grow and
// shrink between calls (large then small and the reverse, empty blocks
// between), and multipliers that include the degenerate 1, under which
// small keys all hash to slot 0 — collisions cost time, never answers.
func TestEvalBlockMatchesOracle(t *testing.T) {
	for _, mul := range []uint64{hashMul, 1, 0x9E3779B97F4A7C15, 1<<63 | 1} {
		setHashMul(t, mul)
		rng := stats.NewRNG(mul ^ 17)
		for shape := range guidShapes {
			for _, size := range []int{1500, 3, 0, 700, 1, 0, 2000, 64} {
				rs := GenerateRuleSet(randomBlock(rng, 200), 2+rng.Intn(3))
				label := fmt.Sprintf("mul %#x, %s, %d pairs", mul, guidShapes[shape].name, size)
				checkEvalAgainstOracle(t, label, rs, shapedBlock(rng, shape, size))
			}
		}
	}
}

// FuzzEvaluateBlock turns bytes into a block over small GUID and host
// alphabets (three bytes a pair; the GUID is four bits of value shifted
// by up to 60) and holds the flat evaluator equal to the oracle against
// both a RuleSet and a trained decay index.
func FuzzEvaluateBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 1, 2, 0x01, 1, 2, 0x01, 1, 3, 0xf1, 1, 2, 0x00, 2, 2, 0x00, 1, 2})
	f.Add(bytes.Repeat([]byte{0x37, 5, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		block := make(trace.Block, len(data)/3)
		for i := range block {
			g, s, r := data[3*i], data[3*i+1], data[3*i+2]
			block[i] = trace.Pair{
				GUID:    trace.GUID(uint64(g&15) << (4 * uint(g>>4))),
				Source:  trace.HostID(s%5 + 1),
				Replier: trace.HostID(r%5 + 1),
			}
		}
		half := len(block) / 2
		checkEvalAgainstOracle(t, "fuzz", GenerateRuleSet(block[:half], 2), block[half:])
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
		if got, want := EvaluateBlock(rs, block), evalBlockOracle(rs, block, nil); got != want {
			t.Fatalf("adversarial block: %+v, oracle %+v", got, want)
		}
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			EvaluateBlock(rs, block)
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

// A block test on a warmed table allocates nothing: no per-GUID state, no
// per-call map.
func TestRuleSetTestAllocations(t *testing.T) {
	blocks := paperBlocks(2)
	rs := GenerateRuleSet(blocks[0], 10)
	rs.Test(blocks[1])
	if n := testing.AllocsPerRun(20, func() { rs.Test(blocks[1]) }); n != 0 {
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
