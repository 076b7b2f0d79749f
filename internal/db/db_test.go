package db

import (
	"slices"
	"testing"
	"testing/quick"

	"arq/internal/trace"
	"arq/internal/tracegen"
)

// bruteImport is the quadratic statement of §IV-A that Import is held to:
// a query survives if no earlier query has its GUID, and each reply pairs
// with the first query carrying its GUID.
func bruteImport(queries []trace.Query, replies []trace.Reply) ([]trace.Pair, ImportStats) {
	firstUse := func(g trace.GUID) int {
		return slices.IndexFunc(queries, func(q trace.Query) bool { return q.GUID == g })
	}
	st := ImportStats{RawQueries: len(queries), RawReplies: len(replies)}
	for i, q := range queries {
		if firstUse(q.GUID) == i {
			st.KeptQueries++
		} else {
			st.DuplicateGUIDs++
		}
	}
	var pairs []trace.Pair
	for _, r := range replies {
		i := firstUse(r.GUID)
		if i < 0 {
			st.UnmatchedReplies++
			continue
		}
		q := queries[i]
		pairs = append(pairs, trace.Pair{
			GUID: r.GUID, Source: q.Source, Replier: r.From,
			Interest: q.Interest, QueryTime: q.Time, ReplyTime: r.Time,
		})
	}
	st.Pairs = len(pairs)
	return pairs, st
}

// collidingCapture draws queries and replies from 16 GUIDs, so reuse and
// unanswered and unknown GUIDs all occur in a few dozen records.
func collidingCapture(qRaw, rRaw []uint8) ([]trace.Query, []trace.Reply) {
	qs := make([]trace.Query, len(qRaw))
	for i, g := range qRaw {
		qs[i] = trace.Query{
			GUID: trace.GUID(g%16 + 1), Time: int64(i),
			Source: trace.HostID(i%5 + 1), Interest: trace.InterestID(i % 3),
		}
	}
	rs := make([]trace.Reply, len(rRaw))
	for i, g := range rRaw {
		rs[i] = trace.Reply{
			GUID: trace.GUID(g%16 + 1), Time: int64(1000 + i),
			From: trace.HostID(i%4 + 10),
		}
	}
	return qs, rs
}

func mustImport(t testing.TB, qs []trace.Query, rs []trace.Reply) *Importer {
	t.Helper()
	imp, err := Import(qs, rs)
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

func TestImportMatchesBruteForce(t *testing.T) {
	f := func(qRaw, rRaw []uint8) bool {
		qs, rs := collidingCapture(qRaw, rRaw)
		imp := mustImport(t, qs, rs)
		want, wantStats := bruteImport(qs, rs)
		return imp.Stats == wantStats && slices.Equal(imp.PairSlice(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The two identities benchmark/policy.go holds every import to.
func TestImportAccountingIdentities(t *testing.T) {
	f := func(qRaw, rRaw []uint8) bool {
		qs, rs := collidingCapture(qRaw, rRaw)
		st := mustImport(t, qs, rs).Stats
		return st.RawQueries == len(qs) && st.RawReplies == len(rs) &&
			st.KeptQueries+st.DuplicateGUIDs == st.RawQueries &&
			st.Pairs == st.RawReplies-st.UnmatchedReplies
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImportFirstUseWins(t *testing.T) {
	qs := []trace.Query{
		{GUID: 1, Source: 10},
		{GUID: 2, Source: 11},
		{GUID: 1, Source: 12}, // duplicate GUID, different query
		{GUID: 3, Source: 13},
		{GUID: 2, Source: 14},
	}
	// One reply per GUID, issued in query order, shows which queries
	// survived and that their order is preserved.
	rs := []trace.Reply{{GUID: 1, From: 20}, {GUID: 2, From: 21}, {GUID: 3, From: 22}}
	imp := mustImport(t, qs, rs)
	if imp.Stats.DuplicateGUIDs != 2 || imp.Stats.KeptQueries != 3 {
		t.Fatalf("stats = %+v, want 2 duplicates and 3 kept", imp.Stats)
	}
	var got []trace.HostID
	for _, p := range imp.PairSlice() {
		got = append(got, p.Source)
	}
	if want := []trace.HostID{10, 11, 13}; !slices.Equal(got, want) {
		t.Fatalf("surviving sources = %v, want %v", got, want)
	}
}

func TestImportPairsInReplyOrder(t *testing.T) {
	qs := []trace.Query{
		{GUID: 1, Source: 10, Interest: 3, Time: 5},
		{GUID: 2, Source: 11, Interest: 4, Time: 6},
		{GUID: 1, Source: 12, Interest: 5, Time: 7}, // GUID 1 reused
	}
	rs := []trace.Reply{
		{GUID: 2, From: 20, Time: 8},
		{GUID: 1, From: 21, Time: 9},
		{GUID: 9, From: 22, Time: 10}, // no matching query
		{GUID: 1, From: 23, Time: 11}, // second reply, after the reuse: still the first use
	}
	imp := mustImport(t, qs, rs)
	if imp.Stats.UnmatchedReplies != 1 || imp.Stats.Pairs != 3 {
		t.Fatalf("stats = %+v, want 1 unmatched and 3 pairs", imp.Stats)
	}
	want := []trace.Pair{
		{GUID: 2, Source: 11, Replier: 20, Interest: 4, QueryTime: 6, ReplyTime: 8},
		{GUID: 1, Source: 10, Replier: 21, Interest: 3, QueryTime: 5, ReplyTime: 9},
		{GUID: 1, Source: 10, Replier: 23, Interest: 3, QueryTime: 5, ReplyTime: 11},
	}
	if got := imp.PairSlice(); !slices.Equal(got, want) {
		t.Fatalf("pairs = %+v\nwant    %+v", got, want)
	}
}

func TestImportStatsSmall(t *testing.T) {
	qs := []trace.Query{
		{GUID: 1, Source: 10, Interest: 0},
		{GUID: 1, Source: 11, Interest: 1}, // duplicate
		{GUID: 2, Source: 12, Interest: 2},
	}
	rs := []trace.Reply{
		{GUID: 1, From: 20},
		{GUID: 3, From: 21}, // unmatched
	}
	imp := mustImport(t, qs, rs)
	want := ImportStats{RawQueries: 3, DuplicateGUIDs: 1, KeptQueries: 2,
		RawReplies: 2, UnmatchedReplies: 1, Pairs: 1}
	if imp.Stats != want {
		t.Fatalf("stats = %+v, want %+v", imp.Stats, want)
	}
	pairs := imp.PairSlice()
	if pairs[0].Source != 10 || pairs[0].Replier != 20 {
		t.Fatalf("pair = %+v", pairs[0])
	}
}

func TestImportEmpty(t *testing.T) {
	for _, c := range []struct {
		qs   []trace.Query
		rs   []trace.Reply
		want ImportStats
	}{
		{nil, nil, ImportStats{}},
		{[]trace.Query{{GUID: 1}}, nil, ImportStats{RawQueries: 1, KeptQueries: 1}},
		{nil, []trace.Reply{{GUID: 1}}, ImportStats{RawReplies: 1, UnmatchedReplies: 1}},
	} {
		imp := mustImport(t, c.qs, c.rs)
		if imp.Stats != c.want || len(imp.PairSlice()) != 0 {
			t.Fatalf("Import(%v, %v): stats %+v, %d pairs; want %+v and none",
				c.qs, c.rs, imp.Stats, len(imp.PairSlice()), c.want)
		}
	}
}

func BenchmarkImport(b *testing.B) {
	qs, rs := tracegen.New(tracegen.PaperProfile()).GenerateRaw(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustImport(b, qs, rs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qs)), "ns/query")
}
