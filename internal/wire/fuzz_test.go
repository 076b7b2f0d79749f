package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// The codecs' contract under fuzzing: anything that parses successfully
// re-encodes to exactly the bytes consumed, and re-decoding the encoding
// reproduces the same value. Malformed input must error, never panic.

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	m := &Message{Type: TypeQuery, TTL: 7, Payload: (&Query{Search: "topic-001 kw"}).Marshal()}
	var buf bytes.Buffer
	_ = m.Encode(&buf)
	f.Add(buf.Bytes())
	f.Add(append(buf.Bytes(), 0xff, 0xee)) // trailing garbage after one frame
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Encode(&out); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		consumed := headerLen + len(m.Payload)
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode != consumed bytes:\n%x\n%x", out.Bytes(), data[:consumed])
		}
		m2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode(encode(m)) = %+v, want %+v", m2, m)
		}
	})
}

func FuzzUnmarshalQuery(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Query{MinSpeed: 17, Search: "topic-003 keywords"}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalQuery(data)
		if err != nil {
			return
		}
		if got := q.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal != original:\n%x\n%x", got, data)
		}
	})
}

// seedHits adds the query-hit corpus both hit fuzz targets start from.
func seedHits(f *testing.F) {
	f.Add([]byte{})
	hit := &QueryHit{
		Port: 6346, IPv4: [4]byte{10, 0, 0, 1}, Speed: 56,
		Results:   []Result{{FileIndex: 1, FileSize: 2048, FileName: "archive.dat"}},
		ServentID: GUID{1, 2, 3},
	}
	if p, err := hit.Marshal(); err == nil {
		f.Add(p)
	}
}

// FuzzCheckQueryHit holds the check a forwarding hop runs to the parser
// the endpoints run: one accepts exactly what the other does, so a hit no
// servent could read is dropped at the first hop and never relayed.
func FuzzCheckQueryHit(f *testing.F) {
	seedHits(f)
	for _, p := range malformedHits() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, perr := UnmarshalQueryHit(data)
		if cerr := CheckQueryHit(data); (cerr == nil) != (perr == nil) {
			t.Fatalf("CheckQueryHit = %v, UnmarshalQueryHit = %v on %x", cerr, perr, data)
		}
	})
}

func FuzzUnmarshalQueryHit(f *testing.F) {
	seedHits(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalQueryHit(data)
		if err != nil {
			return
		}
		got, err := h.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of parsed hit failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("re-marshal != original:\n%x\n%x", got, data)
		}
	})
}

func FuzzUnmarshalPong(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Pong{Port: 6346, Files: 3, Kbytes: 12}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPong(data)
		if err != nil {
			return
		}
		if got := p.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal != original:\n%x\n%x", got, data)
		}
	})
}
