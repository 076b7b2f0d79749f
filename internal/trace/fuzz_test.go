package trace_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"arq/internal/db"
	"arq/internal/trace"
)

// capture encodes records the way arqtrace writes them.
func capture(t testing.TB, qs []trace.Query, rs []trace.Reply, ps []trace.Pair) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, q := range qs {
		if err := w.WriteQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rs {
		if err := w.WriteReply(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ps {
		if err := w.WritePair(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadAll holds the file boundary: whatever ReadAll accepts, pairs
// or a raw capture, writes back through trace.Writer and reads again as
// the same records, and db.Import joins it with its accounting intact.
func FuzzReadAll(f *testing.F) {
	const maxHost = trace.HostID(math.MaxUint32)
	f.Add(capture(f, []trace.Query{{GUID: 1, Source: maxHost, Interest: math.MinInt32, Text: "a"}},
		[]trace.Reply{{GUID: 1, From: maxHost, Host: maxHost, Filename: "b"}},
		[]trace.Pair{{GUID: math.MaxUint64, Source: maxHost, Replier: maxHost, Interest: math.MaxInt32}}))
	// A reply logged before its query.
	f.Add(append(capture(f, nil, []trace.Reply{{GUID: 5, Time: 1, From: 2, Host: 3}}, nil),
		capture(f, []trace.Query{{GUID: 5, Time: 2, Source: 4, Interest: 6}}, nil, nil)...))
	// 10⁴ replies to one GUID.
	many := make([]trace.Reply, 10_000)
	for i := range many {
		many[i] = trace.Reply{GUID: 9, Time: int64(i), From: trace.HostID(i%7 + 1)}
	}
	f.Add(capture(f, []trace.Query{{GUID: 9, Source: 1, Interest: 2}}, many, nil))
	f.Add([]byte("\n{\"k\":\"p\",\"p\":{\"guid\":3,\"src\":1,\"replier\":2,\"interest\":-1,\"qt\":4,\"rt\":5}}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		qs, rs, ps, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		qs2, rs2, ps2, err := trace.ReadAll(bytes.NewReader(capture(t, qs, rs, ps)))
		if err != nil {
			t.Fatalf("records ReadAll accepted do not read back: %v", err)
		}
		if !slices.Equal(qs, qs2) || !slices.Equal(rs, rs2) || !slices.Equal(ps, ps2) {
			t.Fatalf("records changed on a write and read:\n%v %v %v\n%v %v %v", qs, rs, ps, qs2, rs2, ps2)
		}
		imp, err := db.Import(qs, rs)
		if err != nil {
			t.Fatal(err)
		}
		st := imp.Stats
		if st.RawQueries != len(qs) || st.RawReplies != len(rs) ||
			st.KeptQueries+st.DuplicateGUIDs != st.RawQueries ||
			st.Pairs != st.RawReplies-st.UnmatchedReplies || st.Pairs != len(imp.PairSlice()) {
			t.Fatalf("import accounting broken: %+v for %d queries, %d replies, %d pairs", st, len(qs), len(rs), len(imp.PairSlice()))
		}
	})
}
