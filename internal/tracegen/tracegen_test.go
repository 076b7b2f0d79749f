package tracegen

import (
	"testing"

	"arq/internal/db"
	"arq/internal/trace"
)

func smallConfig(seed uint64) Config {
	c := PaperProfile()
	c.Seed = seed
	c.BlockSize = 2000
	c.TotalBlocks = 5
	return c
}

func TestGeneratorDeterministic(t *testing.T) {
	a := New(smallConfig(7))
	b := New(smallConfig(7))
	for {
		ba, oka := a.Next()
		bb, okb := b.Next()
		if oka != okb {
			t.Fatal("sources disagree on length")
		}
		if !oka {
			break
		}
		if len(ba) != len(bb) {
			t.Fatal("block size mismatch")
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("pair %d differs: %+v vs %+v", i, ba[i], bb[i])
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := New(smallConfig(1))
	b := New(smallConfig(2))
	ba, _ := a.Next()
	bb, _ := b.Next()
	same := 0
	for i := range ba {
		if ba[i].Source == bb[i].Source && ba[i].Replier == bb[i].Replier {
			same++
		}
	}
	if same == len(ba) {
		t.Fatal("different seeds produced identical blocks")
	}
}

func TestGeneratorBlockShape(t *testing.T) {
	g := New(smallConfig(3))
	if g.BlockSize() != 2000 {
		t.Fatalf("BlockSize = %d", g.BlockSize())
	}
	n := 0
	for {
		b, ok := g.Next()
		if !ok {
			break
		}
		if len(b) != 2000 {
			t.Fatalf("block length = %d", len(b))
		}
		n++
	}
	if n != 5 {
		t.Fatalf("blocks served = %d, want 5", n)
	}
}

func TestGUIDsUniqueInPairStream(t *testing.T) {
	g := New(smallConfig(4))
	seen := map[trace.GUID]bool{}
	for {
		b, ok := g.Next()
		if !ok {
			break
		}
		for _, p := range b {
			if seen[p.GUID] {
				t.Fatalf("duplicate GUID %d in pair stream", p.GUID)
			}
			seen[p.GUID] = true
		}
	}
}

func TestPairsWellFormed(t *testing.T) {
	g := New(smallConfig(5))
	b, _ := g.Next()
	for _, p := range b {
		if p.Source == trace.NoHost || p.Replier == trace.NoHost {
			t.Fatalf("pair with empty host: %+v", p)
		}
		if p.Interest < 0 || int(p.Interest) >= g.cfg.Interests {
			t.Fatalf("interest out of range: %+v", p)
		}
		if p.ReplyTime <= p.QueryTime {
			t.Fatalf("reply not after query: %+v", p)
		}
	}
}

func TestTimeMonotone(t *testing.T) {
	g := New(smallConfig(6))
	last := int64(-1)
	for {
		b, ok := g.Next()
		if !ok {
			break
		}
		for _, p := range b {
			if p.QueryTime < last {
				t.Fatalf("query time went backwards: %d after %d", p.QueryTime, last)
			}
			last = p.QueryTime
		}
	}
}

func TestChurnReplacesNeighbors(t *testing.T) {
	c := PaperProfile()
	c.Seed = 8
	c.BlockSize = 10_000
	c.TotalBlocks = 30
	g := New(c)
	first, _ := g.Next()
	early := map[trace.HostID]bool{}
	for _, p := range first {
		early[p.Source] = true
	}
	var last trace.Block
	for {
		b, ok := g.Next()
		if !ok {
			break
		}
		last = b
	}
	fresh := 0
	for _, p := range last {
		if !early[p.Source] {
			fresh++
		}
	}
	frac := float64(fresh) / float64(len(last))
	if frac < 0.2 {
		t.Fatalf("after 30 blocks only %.2f of query mass is from new neighbors", frac)
	}
}

func TestReplyConcentration(t *testing.T) {
	// Within one block, replies for a (source, interest) pair should be
	// dominated by one replier — the interest-locality property rules
	// exploit.
	g := New(smallConfig(9))
	b, _ := g.Next()
	type key struct {
		src trace.HostID
		in  trace.InterestID
	}
	counts := map[key]map[trace.HostID]int{}
	for _, p := range b {
		k := key{p.Source, p.Interest}
		if counts[k] == nil {
			counts[k] = map[trace.HostID]int{}
		}
		counts[k][p.Replier]++
	}
	dominated, busy := 0, 0
	for _, m := range counts {
		total, max := 0, 0
		for _, c := range m {
			total += c
			if c > max {
				max = c
			}
		}
		if total < 10 {
			continue
		}
		busy++
		if float64(max)/float64(total) >= 0.7 {
			dominated++
		}
	}
	if busy == 0 {
		t.Fatal("no busy (source, interest) pairs in block")
	}
	if frac := float64(dominated) / float64(busy); frac < 0.7 {
		t.Fatalf("only %.2f of busy pairs are provider-dominated", frac)
	}
}

func TestGenerateRawRatios(t *testing.T) {
	c := PaperProfile()
	c.Seed = 10
	g := New(c)
	const n = 200_000
	qs, rs := g.GenerateRaw(n)
	if len(qs) != n {
		t.Fatalf("queries = %d", len(qs))
	}
	ratio := float64(len(rs)) / float64(len(qs))
	want := c.AnswerProb
	if ratio < want-0.02 || ratio > want+0.02 {
		t.Fatalf("reply ratio = %.4f, want ~%.4f", ratio, want)
	}
	imp, _ := db.Import(qs, rs)
	dupFrac := float64(imp.Stats.DuplicateGUIDs) / float64(n)
	if dupFrac < c.DuplicateGUIDFrac/3 || dupFrac > c.DuplicateGUIDFrac*3 {
		t.Fatalf("duplicate GUID fraction = %.5f, want ~%.5f", dupFrac, c.DuplicateGUIDFrac)
	}
}

func TestGenerateRawJoinable(t *testing.T) {
	c := PaperProfile()
	c.Seed = 11
	g := New(c)
	qs, rs := g.GenerateRaw(50_000)
	imp, _ := db.Import(qs, rs)
	// Nearly every reply must pair with a surviving query.
	if dropped := imp.Stats.UnmatchedReplies; float64(dropped)/float64(len(rs)) > 0.01 {
		t.Fatalf("dropped %d of %d replies", dropped, len(rs))
	}
	if imp.Stats.Pairs == 0 {
		t.Fatal("no pairs after join")
	}
}

func TestWithDefaultsFillsZeroes(t *testing.T) {
	g := New(Config{Seed: 12, BlockSize: 100, TotalBlocks: 1})
	cfg := g.cfg
	if cfg.Neighbors == 0 || cfg.Interests == 0 || cfg.ProviderFidelity == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.BlockSize != 100 {
		t.Fatal("explicit field overridden")
	}
	if _, ok := g.Next(); !ok {
		t.Fatal("generator unusable with defaulted config")
	}
}

func TestQueryTextStable(t *testing.T) {
	if queryText(3) != queryText(3) {
		t.Fatal("query text not deterministic")
	}
	if queryText(3) == queryText(4) {
		t.Fatal("distinct interests share query text")
	}
}
