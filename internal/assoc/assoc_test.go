package assoc

import (
	"testing"
	"testing/quick"
)

func tx(items ...Item) Transaction { return NewItemset(items...) }

func TestNewItemsetCanonical(t *testing.T) {
	s := NewItemset(3, 1, 3, 2, 1)
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Fatalf("canonical form = %v", s)
	}
	if s.Key() != "1,2,3" {
		t.Fatalf("key = %q", s.Key())
	}
}

func TestItemsetOps(t *testing.T) {
	a := NewItemset(1, 2, 3)
	b := NewItemset(2, 3, 4)
	if !a.Contains(2) || a.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !NewItemset(2, 3).SubsetOf(a) || a.SubsetOf(b) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.Union(b).Equal(Itemset{1, 2, 3, 4}) {
		t.Fatalf("union = %v", a.Union(b))
	}
	if !a.Minus(b).Equal(Itemset{1}) {
		t.Fatalf("minus = %v", a.Minus(b))
	}
}

func TestItemsetPropsViaQuick(t *testing.T) {
	f := func(xs, ys []int16) bool {
		a := make([]Item, len(xs))
		for i, x := range xs {
			a[i] = Item(x % 50)
		}
		b := make([]Item, len(ys))
		for i, y := range ys {
			b[i] = Item(y % 50)
		}
		sa, sb := NewItemset(a...), NewItemset(b...)
		u := sa.Union(sb)
		// Union contains both operands; Minus is disjoint from subtrahend.
		if !sa.SubsetOf(u) || !sb.SubsetOf(u) {
			return false
		}
		d := sa.Minus(sb)
		for _, it := range d {
			if sb.Contains(it) {
				return false
			}
		}
		// Union is canonical (sorted strictly increasing).
		for i := 1; i < len(u); i++ {
			if u[i] <= u[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The classical diapers/beer corpus used in the paper's own exposition.
func marketBasket() []Transaction {
	return []Transaction{
		tx(1, 2),    // diapers, beer
		tx(1, 2, 3), // diapers, beer, milk
		tx(1, 2),    // diapers, beer
		tx(1, 3),    // diapers, milk
		tx(2, 3),    // beer, milk
		tx(4, 5),    // caviar, sugar (rare pair)
		tx(3),       // milk
		tx(1, 2, 4), // diapers, beer, caviar
	}
}

func TestAprioriCounts(t *testing.T) {
	freq := Apriori(marketBasket(), 2, 0)
	byKey := map[string]int{}
	for _, f := range freq {
		byKey[f.Items.Key()] = f.Count
	}
	if byKey["1"] != 5 || byKey["2"] != 5 || byKey["3"] != 4 {
		t.Fatalf("singleton counts wrong: %v", byKey)
	}
	if byKey["1,2"] != 4 {
		t.Fatalf("{diapers,beer} count = %d, want 4", byKey["1,2"])
	}
	if _, ok := byKey["4,5"]; ok {
		t.Fatal("{caviar,sugar} with count 1 should be pruned at minCount 2")
	}
	if byKey["1,2,3"] != 0 && byKey["1,2,3"] != byKey["1,2,3"] {
		t.Fatal("unreachable")
	}
}

func TestAprioriMatchesBruteForce(t *testing.T) {
	// Against exhaustive counting on random small corpora.
	f := func(raw [][3]uint8, minRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		txs := make([]Transaction, len(raw))
		for i, r := range raw {
			txs[i] = NewItemset(Item(r[0]%6), Item(r[1]%6), Item(r[2]%6))
		}
		minCount := int(minRaw%4) + 1
		got := map[string]int{}
		for _, fi := range Apriori(txs, minCount, 0) {
			got[fi.Items.Key()] = fi.Count
		}
		// Brute force: enumerate all subsets of {0..5}.
		for mask := 1; mask < 64; mask++ {
			var set Itemset
			for i := 0; i < 6; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, Item(i))
				}
			}
			count := 0
			for _, tx := range txs {
				if set.SubsetOf(tx) {
					count++
				}
			}
			if count >= minCount {
				if got[set.Key()] != count {
					return false
				}
			} else if _, ok := got[set.Key()]; ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAprioriMaxLen(t *testing.T) {
	freq := Apriori(marketBasket(), 1, 1)
	for _, f := range freq {
		if len(f.Items) > 1 {
			t.Fatalf("maxLen=1 produced %v", f.Items)
		}
	}
}

func TestAprioriAntiMonotone(t *testing.T) {
	// Support is anti-monotone: every subset of a frequent itemset is
	// frequent with at least the same count.
	freq := Apriori(marketBasket(), 2, 0)
	byKey := map[string]int{}
	for _, f := range freq {
		byKey[f.Items.Key()] = f.Count
	}
	for _, f := range freq {
		if len(f.Items) < 2 {
			continue
		}
		for _, sub := range properNonEmptySubsets(f.Items) {
			c, ok := byKey[sub.Key()]
			if !ok || c < f.Count {
				t.Fatalf("subset %v of %v missing or undercounted", sub, f.Items)
			}
		}
	}
}

// properNonEmptySubsets enumerates every non-empty proper subset of s.
func properNonEmptySubsets(s Itemset) []Itemset {
	var out []Itemset
	for mask := 1; mask < 1<<len(s)-1; mask++ {
		var sub Itemset
		for i, it := range s {
			if mask&(1<<i) != 0 {
				sub = append(sub, it)
			}
		}
		out = append(out, sub)
	}
	return out
}
