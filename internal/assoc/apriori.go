package assoc

import "sort"

// FrequentItemset is an itemset together with the number of transactions
// containing it.
type FrequentItemset struct {
	Items Itemset
	Count int
}

// Apriori mines all itemsets contained in at least minCount transactions,
// using the level-wise candidate-generation algorithm of Agrawal et al.:
// frequent k-itemsets are joined to form (k+1)-candidates, candidates with
// an infrequent k-subset are pruned before counting, and counting scans the
// transaction list once per level. minCount must be >= 1. maxLen bounds the
// itemset size (0 means unbounded).
//
// Results are grouped by level and sorted by itemset key within a level,
// making output deterministic.
func Apriori(txs []Transaction, minCount, maxLen int) []FrequentItemset {
	if minCount < 1 {
		minCount = 1
	}
	// Level 1: count individual items.
	counts := make(map[Item]int)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	var level []FrequentItemset
	for it, c := range counts {
		if c >= minCount {
			level = append(level, FrequentItemset{Items: Itemset{it}, Count: c})
		}
	}
	sortLevel(level)
	all := append([]FrequentItemset(nil), level...)

	for k := 2; len(level) >= 2 && (maxLen == 0 || k <= maxLen); k++ {
		cands := generateCandidates(level)
		if len(cands) == 0 {
			break
		}
		// Count candidates by scanning transactions.
		candCounts := make([]int, len(cands))
		for _, tx := range txs {
			if len(tx) < k {
				continue
			}
			for i, c := range cands {
				if c.SubsetOf(tx) {
					candCounts[i]++
				}
			}
		}
		level = level[:0]
		for i, c := range cands {
			if candCounts[i] >= minCount {
				level = append(level, FrequentItemset{Items: c, Count: candCounts[i]})
			}
		}
		sortLevel(level)
		all = append(all, level...)
	}
	return all
}

func sortLevel(level []FrequentItemset) {
	sort.Slice(level, func(i, j int) bool {
		return less(level[i].Items, level[j].Items)
	})
}

func less(a, b Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// generateCandidates implements the Apriori join and prune steps: two
// frequent k-itemsets sharing their first k-1 items join into a
// (k+1)-candidate, which is kept only if all of its k-subsets are frequent.
func generateCandidates(level []FrequentItemset) []Itemset {
	freq := make(map[string]bool, len(level))
	for _, f := range level {
		freq[f.Items.Key()] = true
	}
	var out []Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].Items, level[j].Items
			if !samePrefix(a, b) {
				// Level is sorted, so once prefixes diverge no later j
				// matches either.
				break
			}
			cand := a.Union(b)
			if len(cand) != len(a)+1 {
				continue
			}
			if allSubsetsFrequent(cand, freq) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b Itemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand Itemset, freq map[string]bool) bool {
	sub := make(Itemset, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != drop {
				sub = append(sub, it)
			}
		}
		if !freq[sub.Key()] {
			return false
		}
	}
	return true
}
