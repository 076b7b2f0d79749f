package transport

import (
	"net"
	"testing"
	"time"

	"arq/internal/wire"
)

// TestSuperviseRedialsAfterPeerRestart kills a supervised peer, restarts
// a listener on the same address, and expects the supervisor to
// re-establish a working connection on its own.
func TestSuperviseRedialsAfterPeerRestart(t *testing.T) {
	rec0 := mReconnects.Value()
	var got collect
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}})
	b, err := Listen("127.0.0.1:0", Options{NodeID: 2, Handler: got.handle})
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	c, err := a.Supervise(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Supervised(); len(got) != 1 || got[0] != addr {
		t.Fatalf("Supervised() = %v, want [%s]", got, addr)
	}
	if !c.Send(queryMsg(1)) {
		t.Fatal("send on fresh supervised conn shed")
	}
	waitFor(t, 2*time.Second, func() bool { return got.count() == 1 }, "pre-restart frame")

	// Crash the peer, then bring it back on the same address.
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return a.NumConns() == 0 }, "conn death")
	b2, err := Listen(addr, Options{NodeID: 2, Handler: got.handle})
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer b2.Close()

	waitFor(t, 5*time.Second, func() bool { return a.NumConns() == 1 }, "supervised redial")
	if d := mReconnects.Value() - rec0; d < 1 {
		t.Fatalf("transport.reconnects delta = %d, want >= 1", d)
	}
	// The re-established connection must carry frames again.
	if !a.Conns()[0].Send(queryMsg(2)) {
		t.Fatal("send on redialed conn shed")
	}
	waitFor(t, 2*time.Second, func() bool { return got.count() == 2 }, "post-restart frame")
}

// TestSuperviseInitialDialError pins the fail-loudly contract: a dead
// address errors synchronously and leaves nothing supervised.
func TestSuperviseInitialDialError(t *testing.T) {
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}})
	// A listener we immediately close gives us an addr nobody answers.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()

	if _, err := a.Supervise(addr); err == nil {
		t.Fatal("Supervise of dead addr succeeded")
	}
	if got := a.Supervised(); len(got) != 0 {
		t.Fatalf("failed Supervise left %v supervised", got)
	}
	// The addr must be supervisable again after the failure.
	b := listen(t, Options{NodeID: 2, Handler: func(*Conn, *wire.Message) {}})
	if _, err := a.Supervise(b.Addr()); err != nil {
		t.Fatalf("Supervise after earlier failure: %v", err)
	}
}

// TestHeartbeatClosesSilentPeer connects a raw client that completes the
// handshake and hello, then goes silent. With no ReadIdle configured,
// only the heartbeat miss budget can declare it dead.
func TestHeartbeatClosesSilentPeer(t *testing.T) {
	hb0, miss0 := mHeartbeats.Value(), mProbeMisses.Value()
	tr := listen(t, Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		HeartbeatEvery: 20 * time.Millisecond, HeartbeatMisses: 2,
	})
	nc, err := net.Dial("tcp", tr.Addr())
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
	waitFor(t, 2*time.Second, func() bool { return tr.NumConns() == 1 }, "conn registration")

	// The silent client never answers pings: the miss budget runs out
	// and the transport reaps the connection.
	waitFor(t, 3*time.Second, func() bool { return tr.NumConns() == 0 }, "heartbeat reap")
	if d := mHeartbeats.Value() - hb0; d < 2 {
		t.Fatalf("transport.heartbeats delta = %d, want >= 2", d)
	}
	if d := mProbeMisses.Value() - miss0; d < 2 {
		t.Fatalf("transport.probe_misses delta = %d, want >= 2", d)
	}
}

// TestHeartbeatKeepsIdleConnAlive runs two heartbeat-enabled transports
// with a ReadIdle shorter than the test: liveness traffic must keep the
// idle connection open past several idle reaps, and the handlers must
// never see a heartbeat frame.
func TestHeartbeatKeepsIdleConnAlive(t *testing.T) {
	var ga, gb collect
	a := listen(t, Options{
		NodeID: 1, Handler: ga.handle,
		HeartbeatEvery: 20 * time.Millisecond, ReadIdle: 400 * time.Millisecond,
	})
	b := listen(t, Options{
		NodeID: 2, Handler: gb.handle,
		HeartbeatEvery: 20 * time.Millisecond, ReadIdle: 400 * time.Millisecond,
	})
	if _, err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	// > 3 ReadIdle periods, all idle. ReadIdle is twenty heartbeats wide
	// because on a loaded two-CPU box `go test ./...` has starved the
	// writer for over 100 ms (ROADMAP item 1's virtual clock ends that).
	time.Sleep(1300 * time.Millisecond)
	if a.NumConns() != 1 || b.NumConns() != 1 {
		t.Fatalf("idle heartbeat conn reaped: a=%d b=%d conns", a.NumConns(), b.NumConns())
	}
	if ga.count() != 0 || gb.count() != 0 {
		t.Fatalf("handler saw heartbeat frames: a=%d b=%d", ga.count(), gb.count())
	}
}

// TestHeartbeatHealthyPairAccruesNoMisses holds the probe to its word: a
// link whose peer answers every ping never counts a miss. The rule that
// compared a timestamp with the period counted 7 to 28 of them in a
// second here, one timer jitter from reaping the link.
func TestHeartbeatHealthyPairAccruesNoMisses(t *testing.T) {
	hb0, miss0 := mHeartbeats.Value(), mProbeMisses.Value()
	opts := Options{Handler: func(*Conn, *wire.Message) {}, HeartbeatEvery: 25 * time.Millisecond}
	a, b := listen(t, opts), listen(t, opts)
	if _, err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	if d := mProbeMisses.Value() - miss0; d != 0 {
		t.Fatalf("transport.probe_misses = %d on a link that answers every ping, want 0", d)
	}
	if d := mHeartbeats.Value() - hb0; d < 10 {
		t.Fatalf("transport.heartbeats = %d in 1 s at 25 ms, want >= 10", d)
	}
	if a.NumConns() != 1 || b.NumConns() != 1 {
		t.Fatalf("healthy link reaped: a=%d b=%d conns", a.NumConns(), b.NumConns())
	}
}

// Supervised returns the currently supervised peer addresses.
func (t *Transport) Supervised() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.sup))
	for a := range t.sup {
		out = append(out, a)
	}
	return out
}
