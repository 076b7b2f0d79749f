package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Type: TypeQuery, TTL: 7, Hops: 2, Payload: []byte{1, 2, 3}}
	copy(m.ID[:], bytes.Repeat([]byte{0xAB}, 16))
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Type != m.Type || got.TTL != 7 || got.Hops != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("payload mismatch: %v", got.Payload)
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(id [16]byte, typ, ttl, hops byte, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		m := &Message{ID: GUID(id), Type: typ, TTL: ttl, Hops: hops, Payload: payload}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return got.ID == m.ID && got.Type == typ && got.TTL == ttl &&
			got.Hops == hops && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsOversizedPayload(t *testing.T) {
	var hdr [23]byte
	hdr[19] = 0xFF
	hdr[20] = 0xFF
	hdr[21] = 0xFF
	hdr[22] = 0x7F
	_, err := Decode(bytes.NewReader(hdr[:]))
	if err != errTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &Message{Type: TypePing}
	var buf bytes.Buffer
	_ = m.Encode(&buf)
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestQueryPayloadRoundTrip(t *testing.T) {
	q := &Query{MinSpeed: 56, Search: "free software linux"}
	got, err := UnmarshalQuery(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.MinSpeed != 56 || got.Search != q.Search {
		t.Fatalf("got %+v", got)
	}
}

func TestQueryPayloadRejectsUnterminated(t *testing.T) {
	if _, err := UnmarshalQuery([]byte{0, 0, 'a'}); err == nil {
		t.Fatal("unterminated query accepted")
	}
	if _, err := UnmarshalQuery([]byte{0}); err == nil {
		t.Fatal("short query accepted")
	}
}

func TestQueryHitRoundTrip(t *testing.T) {
	h := &QueryHit{
		Port: 6346, IPv4: [4]byte{10, 1, 2, 3}, Speed: 1000,
		Results: []Result{
			{FileIndex: 1, FileSize: 1 << 20, FileName: "topic-001.dat"},
			{FileIndex: 9, FileSize: 42, FileName: "other file.mp3"},
		},
	}
	copy(h.ServentID[:], bytes.Repeat([]byte{0x5A}, 16))
	raw, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalQueryHit(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Port != h.Port || got.IPv4 != h.IPv4 || got.Speed != h.Speed ||
		got.ServentID != h.ServentID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Results) != 2 || got.Results[0] != h.Results[0] || got.Results[1] != h.Results[1] {
		t.Fatalf("results mismatch: %+v", got.Results)
	}
}

func TestQueryHitRejectsCorrupt(t *testing.T) {
	h := &QueryHit{Port: 1, Results: []Result{{FileName: "x"}}}
	raw, _ := h.Marshal()
	for cut := 1; cut < len(raw)-1; cut++ {
		if _, err := UnmarshalQueryHit(raw[:cut]); err == nil &&
			cut < len(raw)-16 {
			t.Fatalf("truncated hit at %d accepted", cut)
		}
	}
	// Trailing junk must be rejected.
	if _, err := UnmarshalQueryHit(append(raw, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// malformedHits is one payload for each way UnmarshalQueryHit refuses a
// hit, each a well-formed two-result hit with one thing wrong.
func malformedHits() [][]byte {
	h := &QueryHit{Port: 1, Results: []Result{{FileIndex: 1, FileName: "a.dat"}, {FileIndex: 2, FileName: "b.dat"}}}
	good, _ := h.Marshal()
	edit := func(f func(p []byte) []byte) []byte { return f(bytes.Clone(good)) }
	nameEnd := 11 + 8 + len("a.dat") // the first name's terminator
	return [][]byte{
		good[:hitFixedLen-1], // shorter than the fixed fields
		edit(func(p []byte) []byte { p[0] = 3; return p }),                             // a result more than the bytes hold
		edit(func(p []byte) []byte { p[0] = 200; return p }),                           // a count no payload this short can hold
		edit(func(p []byte) []byte { p[0] = 1; return p }),                             // a result fewer: trailing bytes
		edit(func(p []byte) []byte { p[nameEnd+1] = 'x'; return p }),                   // no extension-block terminator
		edit(func(p []byte) []byte { return append(p[:len(p)-16], p[len(p)-15:]...) }), // one byte short at the end
		edit(func(p []byte) []byte {
			for i := 11; i < len(p)-16; i++ {
				if p[i] == 0 {
					p[i] = 'z'
				}
			}
			return p
		}), // names that never end
		append(good, 0xFF), // trailing junk
	}
}

func TestCheckQueryHitAgreesAndAllocatesNothing(t *testing.T) {
	h := &QueryHit{Port: 1}
	for i := 0; i < 15; i++ {
		h.Results = append(h.Results, Result{FileIndex: uint32(i), FileSize: 7, FileName: "topic-001 keywords file.dat"})
	}
	good, _ := h.Marshal()
	if err := CheckQueryHit(good); err != nil {
		t.Fatalf("well-formed hit refused: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = CheckQueryHit(good) }); n != 0 {
		t.Fatalf("CheckQueryHit allocates %v times on a well-formed hit, want 0", n)
	}
	for i, p := range malformedHits() {
		_, perr := UnmarshalQueryHit(p)
		if cerr := CheckQueryHit(p); cerr == nil || perr == nil {
			t.Fatalf("malformed hit %d accepted: check %v, unmarshal %v", i, cerr, perr)
		}
	}
	// Marshal and Unmarshal size what they build once.
	if n := testing.AllocsPerRun(100, func() { _, _ = h.Marshal() }); n != 1 {
		t.Fatalf("Marshal allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = UnmarshalQueryHit(good) }); n > 3 {
		t.Fatalf("UnmarshalQueryHit allocates %v times for 15 results, want <= 3", n)
	}
}

func TestPongRoundTrip(t *testing.T) {
	p := &Pong{Port: 6346, IPv4: [4]byte{192, 168, 0, 1}, Files: 120, Kbytes: 4096}
	got, err := UnmarshalPong(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("got %+v", got)
	}
	if _, err := UnmarshalPong(make([]byte, 13)); err == nil {
		t.Fatal("short pong accepted")
	}
}

func TestHandshakeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		if err := ServerHandshake(conn); err != nil {
			errc <- err
			return
		}
		// Echo one message back with hops incremented.
		m, err := Decode(conn)
		if err != nil {
			errc <- err
			return
		}
		m.Hops++
		m.TTL--
		errc <- m.Encode(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := ClientHandshake(conn); err != nil {
		t.Fatal(err)
	}
	q := &Query{MinSpeed: 0, Search: "hello"}
	msg := &Message{Type: TypeQuery, TTL: 7, Payload: q.Marshal()}
	if err := msg.Encode(conn); err != nil {
		t.Fatal(err)
	}
	reply, err := Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TTL != 6 || reply.Hops != 1 {
		t.Fatalf("relay did not update header: %+v", reply)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	var server, client bytes.Buffer
	client.WriteString("HTTP GET / please\n\n\n\n\n\n")
	rw := struct {
		io.Reader
		io.Writer
	}{&client, &server}
	if err := ServerHandshake(rw); err == nil {
		t.Fatal("garbage handshake accepted")
	}
}
