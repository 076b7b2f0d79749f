// Package transport is the real-socket layer of the system: it carries
// wire.Message frames over length-prefixed TCP connections between
// processes, so serialization cost, kernel backpressure, and loss are
// paid for real instead of simulated.
//
// Each Conn owns two goroutines. The read loop decodes frames under a
// per-frame read deadline (a peer that dies mid-workload times out
// instead of hanging us) and hands them to the Transport's handler. The
// write loop drains a bounded stream.DropRing outbox, batching flushes
// through one bufio.Writer under a write deadline that is re-armed only
// when it has half run down; Send never
// touches the socket, so a stalled peer costs the sender a shed, not a
// blocked goroutine: a full outbox makes Send wait up to Options.SendWait
// for a slot and then shed the new frame.
//
// A fault.Injector can be installed at the socket boundary: every
// outbound frame rolls OnSend(localNode, peerNode) and may be dropped,
// duplicated, GUID-corrupted, or delayed (Delay stalls the write loop,
// modeling a slow link), and Down(peer) partitions the edge entirely —
// the same deterministic fault surface the in-process engines have,
// re-targeted at real sockets between processes.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"arq/internal/fault"
	"arq/internal/obsv"
	"arq/internal/stream"
	"arq/internal/wire"
)

// Socket-layer instruments, aggregated across every Transport in the
// process (one process per node in a cluster, so per-process counters
// are per-node counters there).
var (
	mMsgsIn     = obsv.GetCounter("transport.msgs_in")
	mMsgsOut    = obsv.GetCounter("transport.msgs_out")
	mBytesIn    = obsv.GetCounter("transport.bytes_in")
	mBytesOut   = obsv.GetCounter("transport.bytes_out")
	mDials      = obsv.GetCounter("transport.dials")
	mDialErrs   = obsv.GetCounter("transport.dial_errors")
	mAccepts    = obsv.GetCounter("transport.accepts")
	mAcceptErrs = obsv.GetCounter("transport.accept_errors")
	mHandshakes = obsv.GetCounter("transport.handshake_errors")
	mSheds      = obsv.GetCounter("transport.queue_sheds")
	mDiscards   = obsv.GetCounter("transport.close_discards")
	mReadTOs    = obsv.GetCounter("transport.read_timeouts")
	mWriteErrs  = obsv.GetCounter("transport.write_errors")
	mFaultDrops = obsv.GetCounter("transport.fault_drops")
	mFaultDups  = obsv.GetCounter("transport.fault_dups")
	mFaultDelay = obsv.GetCounter("transport.fault_delays")
	mConnsOpen  = obsv.GetGauge("transport.conns_open")

	// Self-healing instruments: supervised redials that re-established a
	// peer link, redial attempts that failed, heartbeat pings sent on
	// idle connections, and heartbeat probes that went unanswered.
	mReconnects     = obsv.GetCounter("transport.reconnects")
	mReconnectFails = obsv.GetCounter("transport.reconnect_failures")
	mHeartbeats     = obsv.GetCounter("transport.heartbeats")
	mProbeMisses    = obsv.GetCounter("transport.probe_misses")
)

// Defaults applied by Listen for zero-valued Options fields.
const (
	DefaultOutboxCap       = 1024
	defaultSendWait        = 1 * time.Second
	defaultWriteWait       = 10 * time.Second
	defaultHandshakeWait   = 5 * time.Second
	defaultFaultDelayUnit  = 1 * time.Millisecond
	defaultHeartbeatMisses = 3
	defaultRedialBase      = 50 * time.Millisecond
)

// redialMax caps the supervisor's backoff between redial attempts.
const redialMax = 2 * time.Second

// Options configures a Transport. Handler is required; everything else
// has a usable zero value.
type Options struct {
	// NodeID identifies this process in the cluster; it is exchanged in
	// the post-handshake hello and keys the socket-boundary fault
	// injector (OnSend(NodeID, peer)).
	NodeID int
	// Handler receives every decoded inbound frame. It runs on the
	// connection's read-loop goroutine: block here and that one peer's
	// inbound path blocks with you.
	Handler func(c *Conn, m *wire.Message)
	// OnConn is invoked once per established connection (dialed or
	// accepted), after the handshake and hello exchange but before the
	// read loop starts — Conn.Tag may be set here without racing the
	// handler. OnClose is invoked once when the connection is torn down.
	OnConn  func(c *Conn)
	OnClose func(c *Conn)
	// OutboxCap bounds each connection's outbound queue (frames).
	OutboxCap int
	// SendWait is how long Send waits for the write loop to free a slot
	// in a full outbox before it sheds the new frame: short bursts get
	// backpressure, a dead peer costs at most SendWait.
	SendWait time.Duration
	// ReadIdle, when positive, is the per-frame read deadline: a
	// connection with no inbound frame for that long is closed (counted
	// by transport.read_timeouts). 0 reads forever.
	ReadIdle time.Duration
	// WriteWait bounds a stalled write: a peer whose kernel buffer stays
	// full for between half of it and all of it gets its connection
	// closed instead of wedging the write loop.
	WriteWait time.Duration
	// HandshakeWait bounds the connect handshake + hello exchange.
	HandshakeWait time.Duration
	// Fault, when non-nil, is consulted once per outbound frame with
	// the local and remote node ids; DelayUnit converts Fate.Delay
	// steps into wall time on the write loop.
	Fault     fault.Injector
	DelayUnit time.Duration
	// HeartbeatEvery, when positive, enables liveness probing: a
	// connection with no inbound frame between two ticks gets a ping
	// (transport.heartbeats), and each further silent period counts a
	// miss (transport.probe_misses); at HeartbeatMisses misses the
	// connection is declared dead and closed. Heartbeat frames are
	// transport-internal — the Handler never sees them. 0 disables
	// probing (dead peers are then caught by ReadIdle alone).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is the unanswered-probe budget before a probed
	// connection is closed (default defaultHeartbeatMisses).
	HeartbeatMisses int
	// RedialBase is where the supervisor's jittered exponential backoff
	// between redial attempts starts (default defaultRedialBase); it
	// doubles up to redialMax. See Supervise.
	RedialBase time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.OutboxCap <= 0 {
		out.OutboxCap = DefaultOutboxCap
	}
	if out.SendWait <= 0 {
		out.SendWait = defaultSendWait
	}
	if out.WriteWait <= 0 {
		out.WriteWait = defaultWriteWait
	}
	if out.HandshakeWait <= 0 {
		out.HandshakeWait = defaultHandshakeWait
	}
	if out.DelayUnit <= 0 {
		out.DelayUnit = defaultFaultDelayUnit
	}
	if out.HeartbeatMisses <= 0 {
		out.HeartbeatMisses = defaultHeartbeatMisses
	}
	if out.RedialBase <= 0 {
		out.RedialBase = defaultRedialBase
	}
	return out
}

// Transport is one process's socket endpoint: a TCP listener plus every
// connection dialed from or accepted into it.
type Transport struct {
	opts Options
	ln   net.Listener
	wg   sync.WaitGroup
	stop chan struct{} // closed by shutdown; wakes supervisor and heartbeat loops

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	sup    map[string]struct{} // desired peers by advertised listen addr
	closed bool
}

// Listen starts a Transport on addr (use "127.0.0.1:0" for tests and
// localhost clusters).
func Listen(addr string, opts Options) (*Transport, error) {
	if opts.Handler == nil {
		return nil, errors.New("transport: Options.Handler is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &Transport{
		opts:  opts.withDefaults(),
		ln:    ln,
		stop:  make(chan struct{}),
		conns: make(map[*Conn]struct{}),
		sup:   make(map[string]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listening address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if !closed {
				mAcceptErrs.Inc()
			}
			return
		}
		mAccepts.Inc()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := t.setup(nc, false); err != nil {
				mHandshakes.Inc()
				_ = nc.Close()
			}
		}()
	}
}

// Dial connects to a peer transport, performing the wire handshake and
// hello exchange, and starts the connection's loops. The returned Conn
// is already registered and live.
func (t *Transport) Dial(addr string) (*Conn, error) {
	mDials.Inc()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		mDialErrs.Inc()
		return nil, err
	}
	c, err := t.setupConn(nc, true)
	if err != nil {
		mDialErrs.Inc()
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

func (t *Transport) setup(nc net.Conn, initiator bool) error {
	_, err := t.setupConn(nc, initiator)
	return err
}

// setupConn runs handshake + hello, registers the Conn, fires OnConn,
// and starts the loops.
func (t *Transport) setupConn(nc net.Conn, initiator bool) (*Conn, error) {
	deadline := time.Now().Add(t.opts.HandshakeWait)
	_ = nc.SetDeadline(deadline)
	var peerID int
	var peerAddr string
	var err error
	if initiator {
		if err = wire.ClientHandshake(nc); err != nil {
			return nil, err
		}
		if err = writeHello(nc, t.opts.NodeID, t.Addr()); err != nil {
			return nil, err
		}
		peerID, peerAddr, err = readHello(nc)
	} else {
		if err = wire.ServerHandshake(nc); err != nil {
			return nil, err
		}
		if peerID, peerAddr, err = readHello(nc); err == nil {
			err = writeHello(nc, t.opts.NodeID, t.Addr())
		}
	}
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{}) // loops manage their own deadlines

	c := &Conn{
		t:        t,
		nc:       nc,
		peerID:   peerID,
		peerAddr: peerAddr,
		out:      stream.NewDropRing[outFrame](t.opts.OutboxCap),
		done:     make(chan struct{}),
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: closed")
	}
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	mConnsOpen.Add(1)
	if t.opts.OnConn != nil {
		t.opts.OnConn(c)
	}
	t.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	if t.opts.HeartbeatEvery > 0 {
		t.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// Close tears the transport down abruptly: the listener closes, every
// connection's queued frames are discarded, sockets close, and Close
// waits for every loop goroutine to exit.
func (t *Transport) Close() { t.shutdown(0) }

// CloseDrain is Close with a grace period: each connection's outbox is
// closed to new frames and the write loops get up to d (in parallel) to
// flush what is queued before the sockets close.
func (t *Transport) CloseDrain(d time.Duration) { t.shutdown(d) }

func (t *Transport) shutdown(drain time.Duration) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	conns := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.stop)
	_ = t.ln.Close()
	if drain > 0 {
		deadline := time.Now().Add(drain)
		for _, c := range conns {
			c.beginDrain()
		}
		for _, c := range conns {
			c.awaitWriter(deadline)
		}
	}
	for _, c := range conns {
		c.close()
	}
	t.wg.Wait()
}

// outFrame is one queued outbound frame plus its injected delay.
type outFrame struct {
	m     *wire.Message
	delay time.Duration
}

// Conn is one live framed connection.
type Conn struct {
	t        *Transport
	nc       net.Conn
	peerID   int
	peerAddr string
	out      *stream.DropRing[outFrame]

	// Tag is caller-owned per-connection state. Set it in OnConn (which
	// runs before the read loop starts); read it anywhere after.
	Tag any

	drainOnce  sync.Once
	closeOnce  sync.Once
	done       chan struct{} // closed when the write loop exits
	writerDead sync.Once

	// framesIn counts inbound frames; the heartbeat loop compares it
	// between ticks to decide whether the connection was idle.
	framesIn atomic.Uint64
}

// PeerID returns the node id the peer announced in its hello.
func (c *Conn) PeerID() int { return c.peerID }

// Send queues m for transmission and reports whether it was accepted.
// It never touches the socket: a full outbox waits up to SendWait for a
// slot, and false means the frame was shed, counted by
// transport.queue_sheds.
// The socket-boundary fault injector is consulted here; an injected
// drop reports true (the frame was "sent", the network lost it).
func (c *Conn) Send(m *wire.Message) bool {
	if f := c.t.opts.Fault; f != nil {
		if f.Down(c.peerID) {
			fault.ReportDownDrop()
			return true
		}
		fate := f.OnSend(c.t.opts.NodeID, c.peerID)
		if fate.Drop {
			mFaultDrops.Inc()
			return true
		}
		var delay time.Duration
		if fate.Delay > 0 {
			delay = time.Duration(fate.Delay) * c.t.opts.DelayUnit
			mFaultDelay.Inc()
		}
		if fate.Corrupt {
			// Corrupt a copy: the caller may be fanning m out to other
			// peers whose bytes must stay intact.
			dup := *m
			dup.ID[0] ^= 0xff
			m = &dup
		}
		if fate.Duplicate {
			mFaultDups.Inc()
			c.enqueue(outFrame{m, delay})
		}
		return c.enqueue(outFrame{m, delay})
	}
	return c.enqueue(outFrame{m, 0})
}

func (c *Conn) enqueue(f outFrame) bool {
	if !c.out.PushDeadline(f, c.t.opts.SendWait) {
		mSheds.Inc()
		return false
	}
	return true
}

func (c *Conn) readLoop() {
	defer c.t.wg.Done()
	defer c.close()
	br := bufio.NewReader(c.nc)
	for {
		if idle := c.t.opts.ReadIdle; idle > 0 {
			_ = c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		m, err := wire.Decode(br)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				mReadTOs.Inc()
			}
			return
		}
		mMsgsIn.Inc()
		mBytesIn.Add(int64(m.WireSize()))
		c.framesIn.Add(1)
		if m.ID == heartbeatMagic {
			// Transport-internal liveness traffic: answer pings, absorb
			// pongs; the Handler never sees either.
			if m.Type == wire.TypePing {
				c.enqueue(outFrame{m: &wire.Message{ID: heartbeatMagic, Type: wire.TypePong, TTL: 1}})
			}
			continue
		}
		c.t.opts.Handler(c, m)
	}
}

// deadlineWriter is the socket as the write loop's bufio.Writer sees it.
// Each write(2) must finish within WriteWait or fail, but arming a
// deadline re-arms a runtime timer, so it is armed a full WriteWait ahead
// and left alone until less than half of that remains: a write on a
// healthy link costs one clock read, and a stalled one fails between
// WriteWait/2 and WriteWait after it began.
type deadlineWriter struct {
	nc       net.Conn
	wait     time.Duration
	deadline time.Time
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if now := time.Now(); w.deadline.Sub(now) < w.wait/2 {
		w.deadline = now.Add(w.wait)
		_ = w.nc.SetWriteDeadline(w.deadline)
	}
	return w.nc.Write(p)
}

func (c *Conn) writeLoop() {
	defer c.t.wg.Done()
	defer c.writerDead.Do(func() { close(c.done) })
	bw := bufio.NewWriter(&deadlineWriter{nc: c.nc, wait: c.t.opts.WriteWait})
	// Frames encoded into bw but not yet flushed to the kernel:
	// transport.msgs_out counts only flushed frames, and a failed flush
	// charges every buffered frame to transport.write_errors, so
	// attempted == delivered + shed + discarded + write_errors holds.
	var pending, pendingBytes int64
	broken := false
	fail := func(n int64) {
		mWriteErrs.Add(n)
		broken = true
		pending, pendingBytes = 0, 0
		c.close()
	}
	flush := func() {
		if err := bw.Flush(); err != nil {
			fail(pending)
			return
		}
		mMsgsOut.Add(pending)
		mBytesOut.Add(pendingBytes)
		pending, pendingBytes = 0, 0
	}
	for {
		f, more, ok := c.out.PopMore()
		if !ok {
			if !broken && pending > 0 {
				flush()
			}
			return
		}
		if broken {
			mWriteErrs.Inc() // drained after a dead socket: the frame is lost
			continue
		}
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		if err := f.m.Encode(bw); err != nil {
			fail(pending + 1)
			continue
		}
		pending++
		pendingBytes += int64(f.m.WireSize())
		if !more {
			flush()
		}
	}
}

// beginDrain closes the outbox to new frames; queued frames stay
// poppable so the write loop can flush them.
func (c *Conn) beginDrain() { c.drainOnce.Do(c.out.Close) }

// awaitWriter blocks until the write loop exits or the deadline passes.
func (c *Conn) awaitWriter(deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	select {
	case <-c.done:
	case <-time.After(d):
	}
}

// close tears the connection down abruptly: queued frames are
// discarded (counted by transport.close_discards), the socket closes,
// and both loops exit. Safe to call from any goroutine, repeatedly.
func (c *Conn) close() {
	c.closeOnce.Do(func() {
		if n := c.out.CloseDiscard(); n > 0 {
			mDiscards.Add(int64(n))
		}
		_ = c.nc.Close()
		c.t.mu.Lock()
		_, present := c.t.conns[c]
		delete(c.t.conns, c)
		c.t.mu.Unlock()
		if present {
			mConnsOpen.Add(-1)
			if c.t.opts.OnClose != nil {
				c.t.opts.OnClose(c)
			}
		}
	})
}

// helloMagic is the GUID every hello frame carries; a peer that speaks
// the wire handshake but not the transport hello is rejected here.
var helloMagic = wire.GUID{'A', 'R', 'Q', '-', 'T', 'R', 'A', 'N', 'S', 'P', 'O', 'R', 'T', '-', 'H', 'I'}

// maxHelloAddr bounds the advertised listen address in a hello frame.
const maxHelloAddr = 256

// marshalHello renders a hello payload: node id plus advertised listen
// address.
func marshalHello(nodeID int, addr string) ([]byte, error) {
	if len(addr) > maxHelloAddr {
		return nil, fmt.Errorf("transport: hello addr %d bytes long", len(addr))
	}
	out := make([]byte, 6+len(addr))
	out[0] = byte(uint32(nodeID))
	out[1] = byte(uint32(nodeID) >> 8)
	out[2] = byte(uint32(nodeID) >> 16)
	out[3] = byte(uint32(nodeID) >> 24)
	out[4] = byte(len(addr))
	out[5] = byte(len(addr) >> 8)
	copy(out[6:], addr)
	return out, nil
}

// unmarshalHello parses a hello payload.
func unmarshalHello(p []byte) (nodeID int, addr string, err error) {
	if len(p) < 6 {
		return 0, "", errors.New("transport: hello payload too short")
	}
	n := int(p[4]) | int(p[5])<<8
	if n > maxHelloAddr {
		return 0, "", errors.New("transport: hello addr too long")
	}
	if len(p) != 6+n {
		return 0, "", errors.New("transport: hello length mismatch")
	}
	id := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	return int(int32(id)), string(p[6:]), nil
}

func writeHello(nc net.Conn, nodeID int, addr string) error {
	payload, err := marshalHello(nodeID, addr)
	if err != nil {
		return err
	}
	m := &wire.Message{ID: helloMagic, Type: wire.TypePing, TTL: 1, Payload: payload}
	return m.Encode(nc)
}

func readHello(nc net.Conn) (int, string, error) {
	// Decode straight off the socket: wire.Decode reads exactly one
	// frame, so no bytes of the frames that follow are buffered away.
	m, err := wire.Decode(nc)
	if err != nil {
		return 0, "", err
	}
	if m.ID != helloMagic || m.Type != wire.TypePing {
		return 0, "", errors.New("transport: peer did not send hello")
	}
	return unmarshalHello(m.Payload)
}
