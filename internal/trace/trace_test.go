package trace

import (
	"bytes"
	"strings"
	"testing"
)

func mkPairs(n int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{
			GUID:     GUID(i + 1),
			Source:   HostID(i%7 + 1),
			Replier:  HostID(i%3 + 100),
			Interest: InterestID(i % 5),
		}
	}
	return ps
}

func TestSliceSourceBlocks(t *testing.T) {
	src := NewSliceSource(mkPairs(25), 10)
	var sizes []int
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(b))
	}
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 5 {
		t.Fatalf("block sizes = %v", sizes)
	}
	if src.BlockSize() != 10 {
		t.Fatalf("BlockSize = %d", src.BlockSize())
	}
}

func TestSliceSourcePreservesOrder(t *testing.T) {
	pairs := mkPairs(30)
	src := NewSliceSource(pairs, 7)
	var got []Pair
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, b...)
	}
	if len(got) != len(pairs) {
		t.Fatalf("got %d pairs, want %d", len(got), len(pairs))
	}
	for i := range got {
		if got[i].GUID != pairs[i].GUID {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestHostIDString(t *testing.T) {
	if got := HostID(0x01020304).String(); got != "1.2.3.4" {
		t.Fatalf("HostID string = %q", got)
	}
}

func TestRoundTripIO(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	q := Query{GUID: 7, Time: 1, Source: 2, Interest: 3, Text: "free software"}
	r := Reply{GUID: 7, Time: 2, From: 4, Host: 5, Filename: "gcc.tar.gz"}
	p := Pair{GUID: 7, Source: 2, Replier: 4, Interest: 3, QueryTime: 1, ReplyTime: 2}
	if err := w.WriteQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteReply(r); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePair(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	qs, rs, ps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0] != q {
		t.Fatalf("query round trip: %+v", qs)
	}
	if len(rs) != 1 || rs[0] != r {
		t.Fatalf("reply round trip: %+v", rs)
	}
	if len(ps) != 1 || ps[0] != p {
		t.Fatalf("pair round trip: %+v", ps)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	_, _, _, err := ReadAll(strings.NewReader("{\"k\":\"x\"}\n"))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	_, _, _, err = ReadAll(strings.NewReader("not json\n"))
	if err == nil {
		t.Fatal("malformed json accepted")
	}
	_, _, _, err = ReadAll(strings.NewReader("{\"k\":\"q\"}\n"))
	if err == nil {
		t.Fatal("kind q without payload accepted")
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	qs, _, _, err := ReadAll(strings.NewReader("\n{\"k\":\"q\",\"q\":{\"guid\":1,\"t\":0,\"src\":9,\"interest\":0}}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0].Source != 9 {
		t.Fatalf("got %+v", qs)
	}
}
