package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"arq/internal/stats"
	"arq/internal/trace"
)

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(src, rep uint32) bool {
		k := packPair(trace.HostID(src), trace.HostID(rep))
		return k.Source() == trace.HostID(src) && k.Replier() == trace.HostID(rep)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomBlock draws a block whose pair population is small enough that
// supports frequently cross interesting prune thresholds.
func randomBlock(rng *stats.RNG, size int) trace.Block {
	b := make(trace.Block, size)
	for i := range b {
		b[i] = trace.Pair{
			GUID:    trace.GUID(rng.Uint64()),
			Source:  trace.HostID(1 + rng.Intn(8)),
			Replier: trace.HostID(1 + rng.Intn(8)),
		}
	}
	return b
}

// decayRef is the incremental policy's rule state found the slow way: a
// bare PairIndex under a threshold, its rules counted by scanning the
// whole index. It is the oracle for the crossing counts Incremental keeps
// up to date, and a ruleView for the oracle evaluator.
type decayRef struct {
	idx       PairIndex
	threshold float64
}

func (r *decayRef) covers(src trace.HostID) bool { return r.activeBySrc()[src] > 0 }

func (r *decayRef) matches(src, rep trace.HostID) bool {
	return r.idx.Support(src, rep) >= r.threshold
}

// activeBySrc counts each antecedent's pairs at or above the threshold.
func (r *decayRef) activeBySrc() map[trace.HostID]float64 {
	m := make(map[trace.HostID]float64)
	r.idx.Range(func(k PairKey, c float64) bool {
		if c >= r.threshold {
			m[k.Source()]++
		}
		return true
	})
	return m
}

// rules counts the pairs at or above the threshold.
func (r *decayRef) rules() int {
	n := 0
	for _, c := range r.activeBySrc() {
		n += int(c)
	}
	return n
}

func rulesEqual(a, b *RuleSet) bool { return slices.Equal(a.rules, b.rules) }

// TestWindowedSnapshotsEqualFromScratch is the engine-equivalence property:
// maintaining a delta window with AddBlock/RemoveBlock and snapshotting
// must, at every step and for every prune threshold >= 1, equal generating
// a rule set from scratch over the concatenation of the live window.
func TestWindowedSnapshotsEqualFromScratch(t *testing.T) {
	f := func(seed uint64, widthRaw, pruneRaw uint8) bool {
		rng := stats.NewRNG(seed)
		width := 1 + int(widthRaw)%4
		prune := 1 + int(pruneRaw)%6
		idx := NewPairIndex()
		var ring []*BlockDelta
		var window []trace.Block
		for step := 0; step < 8; step++ {
			block := randomBlock(rng, 40+rng.Intn(80))
			ring = append(ring, idx.AddBlock(block))
			window = append(window, block)
			for len(ring) > width {
				idx.RemoveBlock(ring[0])
				ring = ring[1:]
				window = window[1:]
			}
			var joined trace.Block
			for _, b := range window {
				joined = append(joined, b...)
			}
			if !rulesEqual(idx.snapshot(prune, 0), GenerateRuleSet(joined, prune)) {
				return false
			}
		}
		// Retiring everything must empty the index exactly.
		for _, d := range ring {
			idx.RemoveBlock(d)
		}
		return idx.counts.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refIncremental is the pre-engine Incremental implementation — private
// nested float table with inline decay, cover scan, and test-then-train —
// preserved as the behavioural reference for Incremental.
type refIncremental struct {
	decay     float64
	threshold float64
	counts    map[trace.HostID]map[trace.HostID]float64
}

func (in *refIncremental) covers(src trace.HostID) bool {
	for _, c := range in.counts[src] {
		if c >= in.threshold {
			return true
		}
	}
	return false
}

func (in *refIncremental) ruleCount() int {
	n := 0
	for _, m := range in.counts {
		for _, c := range m {
			if c >= in.threshold {
				n++
			}
		}
	}
	return n
}

func (in *refIncremental) step(block trace.Block) TestResult {
	if in.counts == nil {
		in.counts = make(map[trace.HostID]map[trace.HostID]float64)
	}
	for src, m := range in.counts {
		for rep, c := range m {
			c *= in.decay
			if c < 0.05 {
				delete(m, rep)
			} else {
				m[rep] = c
			}
		}
		if len(m) == 0 {
			delete(in.counts, src)
		}
	}
	type state struct{ covered, successful bool }
	seen := make(map[trace.GUID]*state, len(block))
	var res TestResult
	for _, p := range block {
		st := seen[p.GUID]
		if st == nil {
			st = &state{covered: in.covers(p.Source)}
			seen[p.GUID] = st
			res.N++
			if st.covered {
				res.Covered++
			}
		}
		if st.covered && !st.successful && in.counts[p.Source][p.Replier] >= in.threshold {
			st.successful = true
			res.Successful++
		}
		m := in.counts[p.Source]
		if m == nil {
			m = make(map[trace.HostID]float64)
			in.counts[p.Source] = m
		}
		m[p.Replier]++
	}
	return res
}

// TestDecayModeMatchesOldIncremental: Incremental on the pair-count engine
// must reproduce the old Incremental's per-block results and rule counts
// exactly, float decay residue included, across random traces with
// repeated GUIDs.
func TestDecayModeMatchesOldIncremental(t *testing.T) {
	f := func(seed uint64, thRaw uint8) bool {
		rng := stats.NewRNG(seed)
		threshold := float64(1 + int(thRaw)%3)
		in := &Incremental{Decay: 0.9, Threshold: threshold}
		ref := &refIncremental{decay: 0.9, threshold: threshold}
		for step := 0; step < 10; step++ {
			block := randomBlock(rng, 30+rng.Intn(60))
			// Revisit some GUIDs so multi-reply queries are exercised.
			for i := 0; i+1 < len(block); i += 3 {
				block[i+1].GUID = block[i].GUID
			}
			got := in.Step(block)
			want := ref.step(block)
			if step > 0 && got.Result != want {
				return false
			}
			if in.active != ref.ruleCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDecayIndexBookkeeping follows Incremental's crossing counts through
// each way a count moves: an add that reaches the threshold, a decay that
// leaves the pair below it, one that evicts it at the floor, and a decay
// with the index empty.
func TestDecayIndexBookkeeping(t *testing.T) {
	in := &Incremental{Decay: 1, Threshold: 2} // no decay inside Step
	check := func(what string, covered bool, active int, pairs int) {
		t.Helper()
		if got := in.activeBySrc.Get(1) > 0; got != covered || in.active != active || in.idx.counts.Len() != pairs {
			t.Fatalf("%s: covered=%v rules=%d pairs=%d, want %v %d %d", what, got, in.active, in.idx.counts.Len(), covered, active, pairs)
		}
	}
	in.Step(trace.Block{})
	check("fresh", false, 0, 0)
	in.Step(trace.Block{pair(1, 1, 10)})
	check("count 1 below threshold 2", false, 0, 1)
	in.Step(trace.Block{pair(2, 1, 10)})
	check("count 2 at threshold 2", true, 1, 1)
	in.idx.counts.Decay(0.5, incrementalFloor, in.threshold, in.track) // 2 -> 1: below threshold, retained
	check("decayed below threshold", false, 0, 1)
	in.Step(trace.Block{pair(3, 1, 10), pair(4, 1, 11), pair(5, 1, 11)})
	check("two rules of one antecedent", true, 2, 2)
	in.idx.counts.Decay(0.001, incrementalFloor, in.threshold, in.track) // drops both entries
	check("floor eviction", false, 0, 0)
	in.idx.Set(1, 10, 3.5)
	if in.idx.Support(1, 10) != 3.5 {
		t.Fatalf("Set: support=%v", in.idx.Support(1, 10))
	}
}

func TestSnapshotPruneFloorAndRebuildReuse(t *testing.T) {
	blk := trace.Block{
		pair(1, 1, 10), pair(2, 1, 10), pair(3, 2, 20),
	}
	idx := NewPairIndex()
	rs := idx.rebuild(blk, 0) // prune < 1 behaves as 1
	if rs.Len() != 2 || rs.Support(1, 10) != 2 || rs.Support(2, 20) != 1 {
		t.Fatalf("rules = %v", rs.rules)
	}
	// Rebuild replaces, not accumulates.
	rs = idx.rebuild(blk, 2)
	if rs.Len() != 1 || rs.Support(1, 10) != 2 {
		t.Fatalf("rules after rebuild = %v", rs.rules)
	}
	if idx.counts.Len() != 2 {
		t.Fatalf("index pairs = %d, want 2", idx.counts.Len())
	}
}

// addBlockOracle is the pair-at-a-time AddBlock that delta-first counting
// replaced, returning the delta as a map.
func addBlockOracle(x *PairIndex, b trace.Block) map[PairKey]float64 {
	delta := make(map[PairKey]float64)
	for _, p := range b {
		k := packPair(p.Source, p.Replier)
		x.counts.Add(k, 1)
		delta[k]++
	}
	return delta
}

func deltaState(d *BlockDelta) map[PairKey]float64 {
	m := make(map[PairKey]float64)
	d.counts.Range(func(k PairKey, n float64) bool { m[k] = n; return true })
	return m
}

// TestAddBlockMatchesPairAtATime: counting a block into its delta first
// and folding the delta leaves the same counts and returns the same delta
// as adding pair by pair, across a delta window whose retired deltas are
// counted into again.
func TestAddBlockMatchesPairAtATime(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		got, want := NewPairIndex(), NewPairIndex()
		var prevGot *BlockDelta
		var prevWant map[PairKey]float64
		for step := 0; step < 8; step++ {
			block := randomBlock(rng, rng.Intn(120))
			if prevGot != nil && rng.Bool(0.7) {
				// Retire the last block: the next AddBlock reuses its delta.
				got.RemoveBlock(prevGot)
				for k, n := range prevWant {
					want.counts.Add(k, -n)
				}
			}
			prevGot, prevWant = got.AddBlock(block), addBlockOracle(want, block)
			if !reflect.DeepEqual(deltaState(prevGot), prevWant) || !reflect.DeepEqual(indexState(got), indexState(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Sliding's steady state allocates nothing to count a block: a warm
// windowed AddBlock counts into the delta RemoveBlock just retired, and
// folding it into (and retiring it from) an index that already holds its
// pairs allocates nothing either.
func TestAddBlockReusedDeltaAllocations(t *testing.T) {
	blocks := paperBlocks(2)
	idx := NewPairIndex()
	for _, b := range blocks { // every table reaches its final size
		idx.RemoveBlock(idx.AddBlock(b))
	}
	i := 0
	if n := pooledAllocs(0, func() { idx.RemoveBlock(idx.AddBlock(blocks[i%len(blocks)])); i++ }); n != 0 {
		t.Errorf("windowed AddBlock into a retired delta: %v allocs per %d-pair block, want 0", n, len(blocks[0]))
	}
}

var benchDelta *BlockDelta

// BenchmarkAddBlock adds a 10 000-pair block to an empty windowed index,
// the shape the benchmark's core.pairindex.addblock_ns probe times: the
// delta counted into is the one the last RemoveBlock retired.
func BenchmarkAddBlock(b *testing.B) {
	blocks := paperBlocks(2)
	idx := NewPairIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDelta = idx.AddBlock(blocks[i%2])
		// One clear of the count array and the hand-back RemoveBlock
		// makes, ~1% of the add: cheaper than pausing the timer.
		idx.reset()
		deltas.Put(benchDelta)
	}
}
