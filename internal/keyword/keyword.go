// Package keyword is the query-string matching substrate of a servent's
// content layer: a tokenizer and an inverted index answering conjunctive
// keyword queries ("all words must appear"), the matching rule Gnutella
// clients applied to shared-file names. internal/vantage uses it to answer
// queries; it is also the hook for the §VI idea of clustering rule
// dimensions by query string.
package keyword

import (
	"slices"
	"sort"
	"strings"
)

// Tokenize splits text into lowercase alphanumeric tokens; everything else
// separates. "Free_Software-2.0.tar" -> ["free", "software", "2", "0",
// "tar"]. The tokens are slices of the one lowered string.
func Tokenize(text string) []string {
	out := strings.FieldsFunc(strings.ToLower(text), isSeparator)
	if len(out) == 0 {
		return nil
	}
	return out
}

func isSeparator(r rune) bool { return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') }

// Index is an inverted index from token to the sorted set of document ids
// containing it. The zero value is unusable; construct with NewIndex.
type Index struct {
	postings map[string][]int32
	docs     map[int32]bool
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{postings: make(map[string][]int32), docs: make(map[int32]bool)}
}

// Add indexes document id under every token of text. Adding the same id
// twice merges its tokens.
func (ix *Index) Add(id int32, text string) {
	ix.docs[id] = true
	for _, tok := range Tokenize(text) {
		lst := ix.postings[tok]
		pos := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
		if pos < len(lst) && lst[pos] == id {
			continue
		}
		lst = append(lst, 0)
		copy(lst[pos+1:], lst[pos:])
		lst[pos] = id
		ix.postings[tok] = lst
	}
}

// Query returns the ids of documents containing every token of text, in
// ascending order. An empty or tokenless query matches nothing (a servent
// never answers empty searches).
func (ix *Index) Query(text string) []int32 {
	tokens := Tokenize(text)
	// Distinct tokens' postings, shortest first: a search has a handful of
	// tokens, so a scan finds a repeat and an insertion keeps the order.
	var buf [8][]int32
	lists := buf[:0]
	for i, tok := range tokens {
		if slices.Contains(tokens[:i], tok) {
			continue
		}
		lst, ok := ix.postings[tok]
		if !ok {
			return nil
		}
		at := len(lists)
		for at > 0 && len(lists[at-1]) > len(lst) {
			at--
		}
		lists = slices.Insert(lists, at, lst)
	}
	if len(lists) == 0 {
		return nil
	}
	// A copy, so callers cannot mutate postings; the other lists then
	// filter it in place.
	out := slices.Clone(lists[0])
	for _, lst := range lists[1:] {
		out = intersect(out, lst)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// intersect keeps in a the ids that ascending list b also holds, and
// returns the shortened a.
func intersect(a, b []int32) []int32 {
	n, j := 0, 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			a[n] = id
			n++
		}
	}
	return a[:n]
}
