// Package assoc is the general form of the association analysis the
// paper applies (§III-A): transactions over discrete items and
// frequent-itemset mining with the Apriori algorithm of Agrawal et al.
// [15][16].
//
// The routing core (internal/core) uses only the single-antecedent /
// single-consequent special case, which it implements directly with
// counters for speed. This package is its test oracle: the 2-itemset
// case of Apriori must agree exactly with core.GenerateRuleSet
// (TestGenerateRuleSetMatchesApriori), and nothing outside a test
// imports it.
package assoc

import (
	"fmt"
	"sort"
	"strings"
)

// Item is a discrete item identifier (in query routing: a host).
type Item int32

// Itemset is a canonical (sorted, duplicate-free) set of items.
type Itemset []Item

// NewItemset canonicalizes items into an Itemset.
func NewItemset(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	var prev Item
	for i, it := range s {
		if i > 0 && it == prev {
			continue
		}
		out = append(out, it)
		prev = it
	}
	return out
}

// Key returns a map key uniquely identifying the itemset.
func (s Itemset) Key() string {
	var b strings.Builder
	for i, it := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	return b.String()
}

// Contains reports whether the canonical itemset s contains item.
func (s Itemset) Contains(item Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= item })
	return i < len(s) && s[i] == item
}

// SubsetOf reports whether every item of s appears in t (both canonical).
func (s Itemset) SubsetOf(t Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Union returns the canonical union of s and t.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, t[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns the canonical difference s \ t.
func (s Itemset) Minus(t Itemset) Itemset {
	out := make(Itemset, 0, len(s))
	for _, it := range s {
		if !t.Contains(it) {
			out = append(out, it)
		}
	}
	return out
}

// Equal reports whether two canonical itemsets are identical.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Transaction is one observation: the set of items that co-occurred. In
// market-basket terms, one purchase; in query routing, the source of a
// query together with the neighbor(s) that led to hits for it.
type Transaction = Itemset
