package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"arq/internal/wire"
)

// TestAcceptHandshakeStallLeaksNothing pins the accept path against a
// client that handshakes but never sends its hello: the server-side
// setup goroutine must time out, close the raw socket, and leave no
// goroutine, no registered conn, and one handshake_errors count behind.
func TestAcceptHandshakeStallLeaksNothing(t *testing.T) {
	hs0 := mHandshakes.Value()
	open0 := mConnsOpen.Value()
	g0 := runtime.NumGoroutine()

	tr := listen(t, Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		HandshakeWait: 100 * time.Millisecond,
	})
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.ClientHandshake(nc); err != nil {
		t.Fatal(err)
	}
	// No hello follows. The server must give up at HandshakeWait and
	// close the socket under us.
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.Decode(nc); err == nil {
		t.Fatal("server sent a frame to a client that never said hello")
	}

	waitFor(t, 2*time.Second, func() bool { return mHandshakes.Value() == hs0+1 }, "handshake error count")
	if tr.NumConns() != 0 || mConnsOpen.Value() != open0 {
		t.Fatalf("stalled handshake registered a conn: %d live, gauge %d->%d",
			tr.NumConns(), open0, mConnsOpen.Value())
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= g0+1 }, "setup goroutine exit")
}

// TestTeardownSettlesWithConnDeadMidRedial drives the full self-healing
// teardown invariant: a supervised peer dies for good, the supervisor is
// left redialing into the void, more sends race the dead conn — and
// after Close, conns_open is back where it started and every attempted
// frame is accounted for as delivered, shed, discarded, or a write
// error. Heartbeats stay off so the only outbox traffic is the test's.
func TestTeardownSettlesWithConnDeadMidRedial(t *testing.T) {
	out0 := mMsgsOut.Value()
	sheds0 := mSheds.Value()
	disc0 := mDiscards.Value()
	werr0 := mWriteErrs.Value()
	open0 := mConnsOpen.Value()
	rfail0 := mReconnectFails.Value()

	var got collect
	a, err := Listen("127.0.0.1:0", Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		SendWait: 50 * time.Millisecond, RedialBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0", Options{NodeID: 2, Handler: got.handle})
	if err != nil {
		t.Fatal(err)
	}

	c, err := a.Supervise(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	attempted := 0
	for i := 0; i < 40; i++ {
		c.Send(queryMsg(byte(i)))
		attempted++
	}
	waitFor(t, 2*time.Second, func() bool { return got.count() == 40 }, "pre-crash delivery")

	// The peer dies and never comes back: the supervisor redials into
	// nothing while the old conn is torn down underneath more sends.
	b.Close()
	for i := 0; i < 20; i++ {
		c.Send(queryMsg(byte(100 + i)))
		attempted++
	}
	waitFor(t, 3*time.Second, func() bool { return mReconnectFails.Value() >= rfail0+2 }, "mid-redial state")

	a.Close()
	if v := mConnsOpen.Value(); v != open0 {
		t.Fatalf("transport.conns_open = %d after Close, want %d", v, open0)
	}
	settled := func() int64 {
		return (mMsgsOut.Value() - out0) + (mSheds.Value() - sheds0) +
			(mDiscards.Value() - disc0) + (mWriteErrs.Value() - werr0)
	}
	if got := settled(); got != int64(attempted) {
		t.Fatalf("attempted %d != delivered+shed+discarded+write_errors %d "+
			"(out %d sheds %d discards %d werrs %d)", attempted, got,
			mMsgsOut.Value()-out0, mSheds.Value()-sheds0,
			mDiscards.Value()-disc0, mWriteErrs.Value()-werr0)
	}
}

// TestCloseDrainReturnsConnsOpenToZero pins the gauge across the
// graceful path too: a drained shutdown with live traffic in flight
// still returns transport.conns_open to its starting value on both
// endpoints.
func TestCloseDrainReturnsConnsOpenToZero(t *testing.T) {
	open0 := mConnsOpen.Value()
	var got collect
	a, err := Listen("127.0.0.1:0", Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0", Options{NodeID: 2, Handler: got.handle})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		c.Send(queryMsg(byte(i)))
	}
	a.CloseDrain(time.Second)
	waitFor(t, 2*time.Second, func() bool { return got.count() == 64 }, "drained delivery")
	b.CloseDrain(time.Second)
	if v := mConnsOpen.Value(); v != open0 {
		t.Fatalf("transport.conns_open = %d after CloseDrain, want %d", v, open0)
	}
}

// TestStalledPeerClosedWithinWriteWait pins the write deadline now that it
// is not re-armed per frame: a peer that stops reading, with frames big
// enough to fill both socket buffers, gets its connection closed no later
// than WriteWait (plus slack) after the last frame was queued, and every
// frame is still accounted for.
func TestStalledPeerClosedWithinWriteWait(t *testing.T) {
	out0, sheds0 := mMsgsOut.Value(), mSheds.Value()
	disc0, werr0 := mDiscards.Value(), mWriteErrs.Value()
	const writeWait = 400 * time.Millisecond
	tr := listen(t, Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		WriteWait: writeWait, OutboxCap: 512, SendWait: time.Nanosecond,
	})
	// A raw peer that says hello and then never reads again.
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.(*net.TCPConn).SetReadBuffer(4096)
	if err := wire.ClientHandshake(nc); err != nil {
		t.Fatal(err)
	}
	if err := writeHello(nc, 9, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readHello(nc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return tr.NumConns() == 1 }, "conn registration")
	c := tr.Conns()[0]
	_ = c.nc.(*net.TCPConn).SetWriteBuffer(4096)

	// 16 MB in 32 KB frames: more than loopback buffers hold at any size
	// the kernel picks, queued in well under WriteWait/2.
	big := &wire.Message{Type: wire.TypeQuery, TTL: 1, Payload: make([]byte, 32<<10)}
	const attempted = 512
	for i := 0; i < attempted; i++ {
		c.Send(big)
	}
	stalled := time.Now()
	select {
	case <-c.done:
	case <-time.After(writeWait + 2*time.Second):
		t.Fatalf("stalled peer's connection still open %v after the last frame was queued (WriteWait %v)",
			time.Since(stalled), writeWait)
	}
	if took := time.Since(stalled); took > writeWait+time.Second {
		t.Fatalf("stalled peer closed after %v, want within WriteWait %v + slack", took, writeWait)
	}
	waitFor(t, 2*time.Second, func() bool { return tr.NumConns() == 0 }, "conn teardown")
	out, sheds := mMsgsOut.Value()-out0, mSheds.Value()-sheds0
	disc, werr := mDiscards.Value()-disc0, mWriteErrs.Value()-werr0
	if out+sheds+disc+werr != attempted {
		t.Fatalf("attempted %d != delivered %d + shed %d + discarded %d + write_errors %d",
			attempted, out, sheds, disc, werr)
	}
	if werr == 0 {
		t.Fatal("a write that timed out counted no transport.write_errors")
	}
}
