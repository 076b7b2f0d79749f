package transport

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arq/internal/obsv"
	"arq/internal/wire"
)

// collect is a handler that accumulates inbound frames.
type collect struct {
	mu     sync.Mutex
	frames []*wire.Message
	sleep  time.Duration // per-frame handler stall (slow consumer)
}

func (cl *collect) handle(_ *Conn, m *wire.Message) {
	if cl.sleep > 0 {
		time.Sleep(cl.sleep)
	}
	cl.mu.Lock()
	cl.frames = append(cl.frames, m)
	cl.mu.Unlock()
}

func (cl *collect) count() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.frames)
}

func listen(t *testing.T, opts Options) *Transport {
	t.Helper()
	tr, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func queryMsg(n byte) *wire.Message {
	m := &wire.Message{Type: wire.TypeQuery, TTL: 7, Payload: (&wire.Query{Search: "topic-001 kw"}).Marshal()}
	m.ID[0] = n
	return m
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDialHelloAndFrames(t *testing.T) {
	var got collect
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}})
	b := listen(t, Options{NodeID: 2, Handler: got.handle})
	c, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c.PeerID() != 2 {
		t.Fatalf("peer id = %d, want 2", c.PeerID())
	}
	if c.peerAddr != b.Addr() {
		t.Fatalf("peer listen addr = %q, want %q", c.peerAddr, b.Addr())
	}
	waitFor(t, 2*time.Second, func() bool { return b.NumConns() == 1 }, "accept registration")
	bc := b.Conns()[0]
	if bc.PeerID() != 1 || bc.peerAddr != a.Addr() {
		t.Fatalf("acceptor saw peer %d @ %q", bc.PeerID(), bc.peerAddr)
	}
	for i := 0; i < 20; i++ {
		if !c.Send(queryMsg(byte(i))) {
			t.Fatalf("send %d rejected", i)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return got.count() == 20 }, "20 frames")
	// Frames arrive in order and intact.
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, m := range got.frames {
		if m.ID[0] != byte(i) {
			t.Fatalf("frame %d has id %d (reordered?)", i, m.ID[0])
		}
		q, err := wire.UnmarshalQuery(m.Payload)
		if err != nil || q.Search != "topic-001 kw" {
			t.Fatalf("frame %d payload corrupt: %v %+v", i, err, q)
		}
	}
}

// Shed accounting settles: every attempted frame is either received,
// shed by the bounded outbox, discarded at close, or failed on write —
// whether a full outbox sheds at once or gives the write loop time.
func TestShedAccountingSettles(t *testing.T) {
	for _, sendWait := range []time.Duration{time.Nanosecond, 5 * time.Millisecond} {
		slow := &collect{sleep: 2 * time.Millisecond}
		b := listen(t, Options{NodeID: 2, Handler: slow.handle})
		a := listen(t, Options{
			NodeID: 1, Handler: func(*Conn, *wire.Message) {},
			OutboxCap: 4, SendWait: sendWait,
		})
		c, err := a.Dial(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sheds0 := obsv.GetCounter("transport.queue_sheds").Value()
		disc0 := obsv.GetCounter("transport.close_discards").Value()
		werr0 := obsv.GetCounter("transport.write_errors").Value()
		const attempts = 200
		for i := 0; i < attempts; i++ {
			c.Send(queryMsg(byte(i)))
		}
		c.CloseDrain(5 * time.Second)
		// The receiver's kernel buffer may still hold flushed frames;
		// wait for the count to hold still for 300ms.
		last, lastChange := -1, time.Now()
		waitFor(t, 10*time.Second, func() bool {
			n := slow.count()
			if n != last {
				last, lastChange = n, time.Now()
				return false
			}
			return time.Since(lastChange) > 300*time.Millisecond
		}, "receive count to settle")
		sheds := obsv.GetCounter("transport.queue_sheds").Value() - sheds0
		disc := obsv.GetCounter("transport.close_discards").Value() - disc0
		werr := obsv.GetCounter("transport.write_errors").Value() - werr0
		total := int64(slow.count()) + sheds + disc + werr
		if total != attempts {
			t.Fatalf("SendWait %v: received %d + sheds %d + discards %d + write errors %d = %d, want %d",
				sendWait, slow.count(), sheds, disc, werr, total, attempts)
		}
		if sendWait == time.Nanosecond && sheds == 0 {
			t.Fatalf("SendWait %v: outbox of 4 absorbed %d frames without shedding", sendWait, attempts)
		}
		a.Close()
		b.Close()
	}
}

// CloseDrain flushes queued frames before the socket closes.
func TestCloseDrainFlushes(t *testing.T) {
	slow := &collect{sleep: time.Millisecond}
	b := listen(t, Options{NodeID: 2, Handler: slow.handle})
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}, OutboxCap: 128})
	c, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if !c.Send(queryMsg(byte(i))) {
			t.Fatalf("send %d rejected", i)
		}
	}
	c.CloseDrain(5 * time.Second)
	waitFor(t, 5*time.Second, func() bool { return slow.count() == n }, "all frames flushed by drain")
}

// A peer that stops reading mid-workload cannot hang us: the read
// deadline reaps the idle connection and sends resolve into sheds.
func TestReadIdleReapsSilentPeer(t *testing.T) {
	a := listen(t, Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		ReadIdle: 50 * time.Millisecond,
	})
	// A raw TCP client that handshakes, says hello, then goes silent.
	nc, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.ClientHandshake(nc); err != nil {
		t.Fatal(err)
	}
	if err := writeHello(nc, 9, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readHello(nc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return a.NumConns() == 1 }, "registration")
	before := obsv.GetCounter("transport.read_timeouts").Value()
	waitFor(t, 2*time.Second, func() bool { return a.NumConns() == 0 }, "idle reap")
	if obsv.GetCounter("transport.read_timeouts").Value() == before {
		t.Fatal("reap not accounted as a read timeout")
	}
}

// Concurrent senders racing Close: no panic, no deadlock, and the
// transport's goroutines are all reaped.
func TestSendRacingClose(t *testing.T) {
	g0 := runtime.NumGoroutine()
	var got collect
	b := listen(t, Options{NodeID: 2, Handler: got.handle})
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}, OutboxCap: 8})
	c, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				c.Send(queryMsg(byte(i)))
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	a.Close()
	stop.Store(true)
	wg.Wait()
	b.Close()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= g0 }, "goroutines reaped")
}

func TestHelloRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		id   int
		addr string
	}{{0, ""}, {7, "127.0.0.1:6346"}, {-3, "x"}, {1 << 20, "host:1"}} {
		p, err := marshalHello(tc.id, tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		id, addr, err := unmarshalHello(p)
		if err != nil || id != tc.id || addr != tc.addr {
			t.Fatalf("roundtrip(%d, %q) = %d, %q, %v", tc.id, tc.addr, id, addr, err)
		}
	}
	if _, _, err := unmarshalHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("short hello parsed")
	}
	if _, _, err := unmarshalHello(append([]byte{0, 0, 0, 0, 5, 0}, 'a')); err == nil {
		t.Fatal("length mismatch parsed")
	}
}

// Conns returns a snapshot of the live connections.
func (t *Transport) Conns() []*Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		out = append(out, c)
	}
	return out
}

// NumConns reports the live connection count.
func (t *Transport) NumConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// CloseDrain gives the write loop up to d to flush queued frames, then
// closes.
func (c *Conn) CloseDrain(d time.Duration) {
	c.beginDrain()
	c.awaitWriter(time.Now().Add(d))
	c.close()
}
