// Package db is the paper's §IV-A capture import: keep the first use of
// each GUID, then pair every reply with the surviving query that carries
// its GUID. The paper ran this in a relational database; all it asked of
// the database was a unique index on GUID and one equi-join, which is one
// hash map and one pass over the replies.
package db

import "arq/internal/trace"

// ImportStats summarizes a trace import, mirroring the counts the paper
// reports for its capture pipeline (§IV-A): raw queries, queries dropped
// for duplicate GUIDs, replies, replies dropped because their query was
// never seen, and the resulting query–reply pairs.
type ImportStats struct {
	RawQueries       int
	DuplicateGUIDs   int
	KeptQueries      int
	RawReplies       int
	UnmatchedReplies int
	Pairs            int
}

// Importer is the result of Import.
type Importer struct {
	Stats ImportStats
	pairs []trace.Pair
}

// Import is a hash join on GUID. Clients in the wild reuse GUIDs, so only
// the first query with a given GUID survives, and a reply to a reused GUID
// joins that first use. Pairs come one per matched reply, in reply arrival
// order. The error is always nil; it leaves the signature when the caller
// under benchmark/ can change with it (ROADMAP item 4).
func Import(queries []trace.Query, replies []trace.Reply) (*Importer, error) {
	first := make(map[trace.GUID]int, len(queries))
	for i := range queries {
		if _, dup := first[queries[i].GUID]; !dup {
			first[queries[i].GUID] = i
		}
	}
	pairs := make([]trace.Pair, 0, len(replies))
	for _, r := range replies {
		i, ok := first[r.GUID]
		if !ok {
			continue
		}
		q := &queries[i]
		pairs = append(pairs, trace.Pair{GUID: r.GUID, Source: q.Source, Replier: r.From, Interest: q.Interest})
	}
	return &Importer{pairs: pairs, Stats: ImportStats{
		RawQueries:       len(queries),
		DuplicateGUIDs:   len(queries) - len(first),
		KeptQueries:      len(first),
		RawReplies:       len(replies),
		UnmatchedReplies: len(replies) - len(pairs),
		Pairs:            len(pairs),
	}}, nil
}

// PairSlice returns the query–reply pairs the simulator consumes.
func (imp *Importer) PairSlice() []trace.Pair { return imp.pairs }
