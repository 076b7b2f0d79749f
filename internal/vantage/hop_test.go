package vantage

import (
	"sync"
	"testing"
	"time"

	"arq/internal/fault"
	"arq/internal/transport"
	"arq/internal/wire"
)

// rawPeer is a bare transport node linked to a servent: it sends whatever
// frames a test hands it and keeps what the servent sends back, with no
// servent logic of its own in the way.
type rawPeer struct {
	conn *transport.Conn

	mu     sync.Mutex
	frames []*wire.Message
}

func newRawPeer(t *testing.T, s *Servent) *rawPeer {
	t.Helper()
	p := &rawPeer{}
	tr, err := transport.Listen("127.0.0.1:0", transport.Options{Handler: func(_ *transport.Conn, m *wire.Message) {
		p.mu.Lock()
		p.frames = append(p.frames, m)
		p.mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	before := s.NumConns()
	if p.conn, err = tr.Dial(s.Addr()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.NumConns() == before+1 }, "the servent to register the raw peer")
	return p
}

// count returns how many frames of the type the peer has received.
func (p *rawPeer) count(typ byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.frames {
		if m.Type == typ {
			n++
		}
	}
	return n
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func guidOf(n int) wire.GUID {
	return wire.GUID{'h', 'o', 'p', byte(n), byte(n >> 8), byte(n >> 16)}
}

func queryFrame(n int) *wire.Message {
	return &wire.Message{ID: guidOf(n), Type: wire.TypeQuery, TTL: 4, Payload: (&wire.Query{Search: "topic-001 keywords"}).Marshal()}
}

func hitFrame(n int, payload []byte) *wire.Message {
	return &wire.Message{ID: guidOf(n), Type: wire.TypeQueryHit, TTL: 4, Payload: payload}
}

func goodHit(t *testing.T) []byte {
	t.Helper()
	h := &wire.QueryHit{Results: []wire.Result{{FileIndex: 1, FileName: "a.dat"}, {FileIndex: 2, FileName: "b.dat"}}}
	p, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMalformedHitDroppedAtFirstHop sends a forwarding servent one hit for
// each way UnmarshalQueryHit refuses a payload. The servent no longer
// parses a hit it only relays, and must still relay none of these.
func TestMalformedHitDroppedAtFirstHop(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	up, down := newRawPeer(t, s), newRawPeer(t, s)

	up.conn.Send(queryFrame(1))
	waitUntil(t, func() bool { return down.count(wire.TypeQuery) == 1 }, "the query to be relayed")

	good := goodHit(t)
	clone := func() []byte { return append([]byte(nil), good...) }
	short := clone()[:26]
	truncated := clone()
	truncated[0] = 3 // claims a result the bytes do not hold
	unterminated := clone()
	unterminated[11+8+len("a.dat")+1] = 'x' // first name's extension block never ends
	trailing := append(clone(), 0xFF)
	fewer := clone()
	fewer[0] = 1 // one result declared, two present: trailing bytes
	for name, p := range map[string][]byte{
		"too short": short, "truncated result": truncated, "unterminated name": unterminated,
		"trailing byte": trailing, "trailing result": fewer,
	} {
		if _, err := wire.UnmarshalQueryHit(p); err == nil {
			t.Fatalf("%s: the test's payload is not malformed", name)
		}
		down.conn.Send(hitFrame(1, p))
	}
	// Frames on one connection are handled in order: once the good hit is
	// through, every malformed one before it has been judged.
	down.conn.Send(hitFrame(1, good))
	waitUntil(t, func() bool { return up.count(wire.TypeQueryHit) >= 1 }, "the well-formed hit to be routed")
	time.Sleep(20 * time.Millisecond)
	if n := up.count(wire.TypeQueryHit); n != 1 {
		t.Fatalf("upstream received %d hits, want only the well-formed one", n)
	}
	if r, d := s.m.HitsRouted.Value(), s.m.HitsDropped.Value(); r != 1 || d != 0 {
		t.Fatalf("hits routed %d dropped %d, want 1 and 0 (a malformed hit is neither)", r, d)
	}
}

// TestHitWithoutTTLIsNotRelayed runs a search down a three-servent chain
// and answers it from the far end with hits no honest responder sends: TTL
// 0 and 1 with a relay hop still to go. The relay must drop both (TTL-1 on
// a byte would send the first on with 255) and forward the third, with TTL
// 2, which the origin delivers to its Search whatever TTL it arrives with.
func TestHitWithoutTTLIsNotRelayed(t *testing.T) {
	var chain [3]*Servent
	for i := range chain {
		s, err := Listen("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		chain[i] = s
		if i > 0 {
			if err := s.ConnectTo(chain[i-1].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	origin, relay, far := chain[0], chain[1], chain[2]
	waitUntil(t, func() bool { return origin.NumConns() == 1 && relay.NumConns() == 2 }, "the chain to link up")

	found := make(chan *wire.QueryHit, 1)
	go func() {
		hit, _ := origin.Search("nobody shares this", 4, 5*time.Second)
		found <- hit
	}()
	var id wire.GUID
	waitUntil(t, func() bool {
		far.mu.Lock()
		defer far.mu.Unlock()
		for id = range far.seen.cur {
			return true
		}
		return false
	}, "the query to reach the far end")
	far.mu.Lock()
	back := far.conns[0]
	far.mu.Unlock()

	for ttl := byte(0); ttl <= 2; ttl++ {
		h := &wire.QueryHit{Results: []wire.Result{{FileIndex: uint32(ttl), FileName: "sent with this ttl"}}}
		p, err := h.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := back.send(&wire.Message{ID: id, Type: wire.TypeQueryHit, TTL: ttl, Hops: 1, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	// Frames on one connection are handled in order: the hit that arrives
	// was judged after the two before it.
	hit := <-found
	if hit == nil || hit.Results[0].FileIndex != 2 {
		t.Fatalf("Search returned %+v, want the hit sent with TTL 2 and no other", hit)
	}
	for _, c := range []struct {
		name            string
		s               *Servent
		routed, dropped int64
	}{{"origin", origin, 1, 0}, {"relay", relay, 1, 2}, {"far end", far, 0, 0}} {
		if r, d := c.s.m.HitsRouted.Value(), c.s.m.HitsDropped.Value(); r != c.routed || d != c.dropped {
			t.Errorf("%s: hits routed %d dropped %d, want %d and %d (the relay drops TTL 0 and 1)", c.name, r, d, c.routed, c.dropped)
		}
	}
}

// TestSeenWindowBoundsTheTable floods a servent with three windows of
// distinct queries: its GUID table stays within two, a query inside the
// window is still suppressed as a duplicate, and its hit still finds the
// reverse path.
func TestSeenWindowBoundsTheTable(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	up, down := newRawPeer(t, s), newRawPeer(t, s)
	tableLen := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.seen.cur) + len(s.seen.old)
	}

	sent := 0
	send := func(n int) {
		for ; n > 0; n-- {
			sent++
			up.conn.Send(queryFrame(sent))
		}
		waitUntil(t, func() bool { return down.count(wire.TypeQuery) == sent }, "the queries to be relayed")
	}
	send(2 * seenWindow)
	marked := sent // the newest GUID; seenWindow-1 more keep it inside the window
	send(seenWindow - 1)
	if n := tableLen(); n > 2*seenWindow {
		t.Fatalf("seen table holds %d GUIDs after %d queries, want <= %d", n, sent, 2*seenWindow)
	}

	up.conn.Send(queryFrame(marked))
	waitUntil(t, func() bool { return s.m.DupDrops.Value() == 1 }, "the repeated query to be dropped as a duplicate")
	down.conn.Send(hitFrame(marked, goodHit(t)))
	waitUntil(t, func() bool { return up.count(wire.TypeQueryHit) == 1 }, "the hit of a query inside the window to be routed")
	if n := down.count(wire.TypeQuery); n != sent {
		t.Fatalf("downstream saw %d queries, want %d: a duplicate was relayed", n, sent)
	}

	// A GUID two windows old is forgotten: its hit has no reverse path.
	send(seenWindow + 1)
	down.conn.Send(hitFrame(1, goodHit(t)))
	waitUntil(t, func() bool { return s.m.HitsDropped.Value() == 1 }, "the hit of a forgotten query to be dropped")
	if n := tableLen(); n > 2*seenWindow {
		t.Fatalf("seen table holds %d GUIDs after %d queries, want <= %d", n, sent, 2*seenWindow)
	}
}

func TestSeenTableGenerations(t *testing.T) {
	tab := newSeenTable()
	for i := 0; i < 3*seenWindow; i++ {
		tab.put(guidOf(i), i)
		if n := len(tab.cur) + len(tab.old); n > 2*seenWindow {
			t.Fatalf("table holds %d GUIDs after %d puts, want <= %d", n, i+1, 2*seenWindow)
		}
	}
	for i := 2 * seenWindow; i < 3*seenWindow; i++ {
		if conn, ok := tab.get(guidOf(i)); !ok || conn != i {
			t.Fatalf("GUID %d of the last window: got conn %d ok=%v", i, conn, ok)
		}
	}
	if _, ok := tab.get(guidOf(0)); ok {
		t.Fatal("a GUID three windows old is still in the table")
	}
}

// downAll is a socket-boundary injector that partitions every peer away:
// a frame sent is dropped before the outbox, so a handler called directly
// runs its whole path and nothing else in the process moves.
type downAll struct{}

func (downAll) OnSend(int, int) fault.Fate { return fault.Fate{} }
func (downAll) Down(int) bool              { return true }
func (downAll) Tick()                      {}

// TestHopAllocations pins what a relay hop may allocate: forwarding a hit
// costs the outbound frame header and nothing else (the payload goes on
// as it came, unparsed), and a duplicate query costs nothing at all.
// AllocsPerRun counts the whole process, so the servent's links are
// partitioned and the handlers are called directly.
func TestHopAllocations(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{Net: &transport.Options{Fault: downAll{}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	newRawPeer(t, s)
	newRawPeer(t, s)
	s.mu.Lock()
	up, down := s.conns[0], s.conns[1]
	s.mu.Unlock()
	s.Share("topic-001 keywords file.dat", 1)

	query := queryFrame(1)
	s.handleQuery(up, query)
	h := &wire.QueryHit{}
	for i := 0; i < 15; i++ {
		h.Results = append(h.Results, wire.Result{FileIndex: uint32(i), FileName: "topic-001 keywords file.dat"})
	}
	payload, _ := h.Marshal()
	hit := hitFrame(1, payload)

	if n := testing.AllocsPerRun(200, func() { s.handleQueryHit(down, hit) }); n > 1 {
		t.Fatalf("forwarding a 15-result hit allocates %v times, want <= 1", n)
	}
	if s.m.HitsRouted.Value() == 0 {
		t.Fatal("the measured hits were not routed")
	}
	if n := testing.AllocsPerRun(200, func() { s.handleQuery(down, query) }); n != 0 {
		t.Fatalf("a duplicate query allocates %v times, want 0", n)
	}
	if s.m.DupDrops.Value() == 0 {
		t.Fatal("the measured queries were not duplicates")
	}
}
