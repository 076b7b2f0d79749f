// Package vantage implements a minimal Gnutella 0.4 servent over real TCP
// (internal/wire) and the trace-capturing "modified node" of paper §IV-A:
// a servent that participates in flooding normally while logging every
// query it relays and every query-hit that comes back, producing the
// query/reply records the rest of the system consumes.
//
// The loopback integration tests run several servents in-process, flood
// queries through a chain, capture the traffic at the middle node, and
// mine routing rules from the captured pairs — the paper's full data path
// on a live protocol stack.
package vantage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"arq/internal/keyword"
	"arq/internal/obsv"
	"arq/internal/transport"
	"arq/internal/wire"
)

// instruments is one servent's protocol counts: wire messages in/out,
// duplicate-GUID drops, query-hits routed back vs dropped for want of a
// reverse path, and queries forwarded on learned rules vs flooded. Listen
// registers them with obsv.Default and Close retires them. One atomic add
// per TCP message — noise next to the syscall that carried it.
type instruments struct {
	MsgsIn      obsv.Counter `obsv:"vantage.msgs_in"`
	MsgsOut     obsv.Counter `obsv:"vantage.msgs_out"`
	DupDrops    obsv.Counter `obsv:"vantage.dup_queries_dropped"`
	HitsRouted  obsv.Counter `obsv:"vantage.hits_routed"`
	HitsDropped obsv.Counter `obsv:"vantage.hits_dropped"`
	RuleRouted  obsv.Counter `obsv:"vantage.rule_routed"`
	RuleFlood   obsv.Counter `obsv:"vantage.rule_flood"`
}

// SharedFile is one item in the servent's library.
type SharedFile struct {
	Index uint32
	Size  uint32
	Name  string
}

// Servent is a minimal Gnutella peer: it accepts and dials connections
// through the real-socket layer (internal/transport), floods queries
// with TTL and GUID duplicate suppression, answers queries that match
// its library, and routes query-hits back along the reverse path. Every
// outbound message rides a per-connection bounded outbox drained by the
// transport's write loop, so a stalled peer sheds frames instead of
// wedging the protocol goroutines.
type Servent struct {
	id    wire.GUID
	guid  uint64 // first half of every GUID Search draws (see newGUID)
	tr    *transport.Transport
	cap   *Capture      // optional trace capture
	rules *ruleServer   // optional association-rule routing
	ckpt  *checkpointer // optional rule-snapshot persistence

	mu      sync.Mutex
	conns   map[int]*peerConn
	nextCID int
	library []SharedFile
	index   *keyword.Index                    // token index over library file names
	seen    seenTable                         // query GUID -> conn id it arrived on (-1 = ours)
	pending map[wire.GUID]chan *wire.QueryHit // our own searches
	closed  bool

	m      instruments
	retire func() // takes m out of obsv.Default's live view
}

// seenWindow is how many query GUIDs one generation of a seenTable holds.
// A constant, not an option: 2 048 is two seconds of a 1 000 searches/s
// mesh, far past the life of a flood or of Search's wait for a hit, and
// two generations of it are ~100 KB a servent.
const seenWindow = 2048

// seenTable is the servent's routing table for queries in flight: which
// connection a GUID first arrived on, for duplicate suppression and for
// the reverse path of its hits. It is two generations: put inserts into
// the current one, get looks in both, and when the current one is full the
// older is cleared and takes its place. So it never holds more than
// 2×seenWindow GUIDs and always remembers the last seenWindow; a query
// older than that is relayed again if it turns up and its late hits are
// dropped for want of a reverse path, which is what a real servent's
// table does to them too.
type seenTable struct {
	cur, old map[wire.GUID]int
}

func newSeenTable() seenTable {
	return seenTable{cur: make(map[wire.GUID]int), old: make(map[wire.GUID]int)}
}

func (t *seenTable) get(id wire.GUID) (conn int, ok bool) {
	if conn, ok = t.cur[id]; !ok {
		conn, ok = t.old[id]
	}
	return conn, ok
}

func (t *seenTable) put(id wire.GUID, conn int) {
	if len(t.cur) >= seenWindow {
		t.cur, t.old = t.old, t.cur
		clear(t.cur)
	}
	t.cur[id] = conn
}

// errShed reports a message not accepted by the connection's outbox.
var errShed = errors.New("vantage: outbound message shed")

type peerConn struct {
	id int
	c  *transport.Conn
	m  *instruments // the servent's
}

func (p *peerConn) send(m *wire.Message) error {
	p.m.MsgsOut.Inc()
	if !p.c.Send(m) {
		return errShed
	}
	return nil
}

// Options configures a servent.
type Options struct {
	// Capture, when non-nil, records relayed queries and returning hits.
	Capture *Capture
	// Rules enables association-rule routing: the servent learns
	// {upstream connection} -> {replying connection} rules from hits it
	// routes back and forwards covered queries to the learned top-k
	// connections instead of flooding (see rules.go).
	Rules bool
	// Checkpoint, when non-nil (and Rules is set), persists published
	// rule snapshots to disk on a publish cadence and enables WarmStart —
	// the crash-recovery path (see checkpoint.go).
	Checkpoint *CheckpointConfig
	// Net, when non-nil, overrides the socket-layer parameters: node id,
	// outbox capacity and send wait, read/write deadlines, and the
	// fault.Injector applied to every frame this servent sends (keyed by
	// node ids, so drop/delay/partition apply between processes rather
	// than between this servent's connections). The Handler, OnConn,
	// and OnClose fields are owned by the servent and ignored.
	Net *transport.Options
}

// drainTimeout bounds how long Close waits for queued outbound frames
// to flush before sockets are torn down.
const drainTimeout = time.Second

// Listen starts a servent on addr (use "127.0.0.1:0" in tests).
func Listen(addr string, opts Options) (*Servent, error) {
	s := &Servent{
		cap:     opts.Capture,
		conns:   make(map[int]*peerConn),
		index:   keyword.NewIndex(),
		seen:    newSeenTable(),
		pending: make(map[wire.GUID]chan *wire.QueryHit),
	}
	var topts transport.Options
	if opts.Net != nil {
		topts = *opts.Net
	}
	topts.Handler = func(c *transport.Conn, m *wire.Message) {
		if pc, ok := c.Tag.(*peerConn); ok {
			s.handle(pc, m)
		}
	}
	topts.OnConn = s.register
	topts.OnClose = s.unregister
	tr, err := transport.Listen(addr, topts)
	if err != nil {
		return nil, err
	}
	s.tr = tr
	s.retire = obsv.Default.Register(&s.m)
	if opts.Rules {
		s.rules = newRuleServer(&s.m)
		if opts.Checkpoint != nil {
			s.ckpt = &checkpointer{cfg: opts.Checkpoint.withDefaults()}
		}
	}
	copy(s.id[:], tr.Addr())
	h := fnv.New64a()
	h.Write([]byte(tr.Addr()))
	s.guid = h.Sum64() ^ guidProcSalt
	return s, nil
}

// register assigns the servent's small integer connection id (the
// universe the capture and rule learner work over) to a new transport
// connection. Runs before the connection's read loop starts, so setting
// Tag here never races the handler.
func (s *Servent) register(c *transport.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pc := &peerConn{id: s.nextCID, c: c, m: &s.m}
	s.nextCID++
	c.Tag = pc
	s.conns[pc.id] = pc
}

func (s *Servent) unregister(c *transport.Conn) {
	pc, ok := c.Tag.(*peerConn)
	if !ok {
		return
	}
	s.mu.Lock()
	delete(s.conns, pc.id)
	s.mu.Unlock()
}

// Addr returns the listening address.
func (s *Servent) Addr() string { return s.tr.Addr() }

// NetInstruments returns the counts of the servent's own transport.
func (s *Servent) NetInstruments() *transport.Instruments { return s.tr.Instruments() }

// Close shuts the servent down and waits for its goroutines: queued
// outbound frames get a bounded drain, then sockets close.
func (s *Servent) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Final checkpoint before the transport goes down: the conn -> node
	// remap needs the live connection set.
	s.closeCheckpointer()
	s.tr.CloseDrain(drainTimeout)
	s.retire()
}

// Share adds a file to the servent's library and indexes its name.
func (s *Servent) Share(name string, size uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.library = append(s.library, SharedFile{
		Index: uint32(len(s.library) + 1), Size: size, Name: name,
	})
	s.index.Add(int32(len(s.library)-1), name)
}

// ConnectTo dials another servent, performing the wire handshake and
// transport hello exchange.
func (s *Servent) ConnectTo(addr string) error {
	_, err := s.tr.Dial(addr)
	return err
}

// SuperviseTo is ConnectTo with self-healing: the transport supervisor
// redials addr with backoff whenever the connection dies (see
// transport.Supervise). The redialed connection registers through the
// normal OnConn path, so rule learning and routing resume on it
// transparently.
func (s *Servent) SuperviseTo(addr string) error {
	_, err := s.tr.Supervise(addr)
	return err
}

// NumConns reports the live connection count.
func (s *Servent) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Servent) handle(from *peerConn, m *wire.Message) {
	s.m.MsgsIn.Inc()
	switch m.Type {
	case wire.TypePing:
		s.handlePing(from, m)
	case wire.TypeQuery:
		s.handleQuery(from, m)
	case wire.TypeQueryHit:
		s.handleQueryHit(from, m)
	}
}

func (s *Servent) handlePing(from *peerConn, m *wire.Message) {
	s.mu.Lock()
	files := uint32(len(s.library))
	s.mu.Unlock()
	pong := (&wire.Pong{Port: 0, Files: files}).Marshal()
	reply := &wire.Message{ID: m.ID, Type: wire.TypePong, TTL: m.Hops + 1, Payload: pong}
	_ = from.send(reply)
}

func (s *Servent) handleQuery(from *peerConn, m *wire.Message) {
	text, err := wire.QuerySearch(m.Payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	if _, dup := s.seen.get(m.ID); dup {
		s.mu.Unlock()
		s.m.DupDrops.Inc()
		return
	}
	s.seen.put(m.ID, from.id)
	// Only a query seen for the first time pays for its search string.
	search := string(text)
	results := matchLibrary(s.index, s.library, search)
	var buf [16]*peerConn // a servent's handful of links, without a heap slice
	targets := buf[:0]
	if m.TTL > 1 {
		for _, c := range s.conns {
			if c.id != from.id {
				targets = append(targets, c)
			}
		}
	}
	s.mu.Unlock()

	if s.cap != nil {
		s.cap.recordQuery(from.id, m.ID, search)
	}

	// Answer from the local library.
	if len(results) > 0 {
		hit := wire.QueryHit{Results: results, ServentID: s.id}
		payload, err := hit.Marshal()
		if err == nil {
			_ = from.send(&wire.Message{
				ID: m.ID, Type: wire.TypeQueryHit, TTL: m.Hops + 1, Payload: payload,
			})
		}
	}

	// Forward onward: learned rules narrow the targets (read lock-free
	// from the published snapshot, outside s.mu), flooding otherwise.
	if s.rules != nil {
		targets = s.rules.filter(from.id, targets)
	}
	fwd := &wire.Message{ID: m.ID, Type: wire.TypeQuery, TTL: m.TTL - 1, Hops: m.Hops + 1, Payload: m.Payload}
	for _, c := range targets {
		_ = c.send(fwd)
	}
}

// handleQueryHit moves a hit one hop along its query's reverse path. A
// hop that only forwards checks the payload's shape and sends the bytes
// on as they came; the hit is parsed where something reads it, for the
// local Search that asked or for a Capture.
func (s *Servent) handleQueryHit(from *peerConn, m *wire.Message) {
	if wire.CheckQueryHit(m.Payload) != nil {
		return
	}
	s.mu.Lock()
	upstream, known := s.seen.get(m.ID)
	var target *peerConn
	var waiter chan *wire.QueryHit
	if known {
		if upstream == -1 {
			waiter = s.pending[m.ID]
		} else {
			target = s.conns[upstream]
		}
	}
	s.mu.Unlock()
	// A hit with a hop still to go and no TTL left for it is dropped, not
	// sent on with the byte wrapped round to 255. An honest responder
	// sends Hops+1, so only a broken or hostile peer gets here.
	if !known || (upstream != -1 && m.TTL <= 1) {
		s.m.HitsDropped.Inc()
		return
	}
	s.m.HitsRouted.Inc()
	var hit *wire.QueryHit
	if waiter != nil || s.cap != nil {
		hit, _ = wire.UnmarshalQueryHit(m.Payload) // CheckQueryHit passed it
	}
	if s.cap != nil {
		s.cap.recordReply(from.id, m.ID, hit)
	}
	if s.rules != nil {
		s.rules.observe(upstream, from.id)
		s.maybeCheckpoint()
	}
	if waiter != nil {
		select {
		case waiter <- hit:
		default:
		}
		return
	}
	if target != nil {
		_ = target.send(&wire.Message{
			ID: m.ID, Type: wire.TypeQueryHit,
			TTL: m.TTL - 1, Hops: m.Hops + 1, Payload: m.Payload,
		})
	}
}

// A query GUID is sixteen bytes. The first eight are an FNV hash of the
// servent's address salted with per-process entropy (Servent.guid, hashed
// once at Listen), NOT the address bytes themselves: servents in
// different processes share the "127.0.0." prefix and restart their
// counters at zero, so raw-prefix GUIDs collide across an N-process
// cluster and the nodes suppress each other's queries as duplicates. The
// last eight are a count shared by the process's servents.
var guidCounter atomic.Uint64

var guidProcSalt = uint64(os.Getpid())*0x9e3779b97f4a7c15 ^ uint64(time.Now().UnixNano())

func (s *Servent) newGUID() wire.GUID {
	var g wire.GUID
	binary.LittleEndian.PutUint64(g[:8], s.guid)
	binary.LittleEndian.PutUint64(g[8:], guidCounter.Add(1))
	return g
}

// Search floods a query from this servent and waits up to timeout for the
// first query-hit.
func (s *Servent) Search(text string, ttl byte, timeout time.Duration) (*wire.QueryHit, error) {
	id := s.newGUID()
	// Room for the first few of the many hits a broad search draws; the
	// rest are dropped at the send, and Search returns the first.
	ch := make(chan *wire.QueryHit, 4)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("vantage: servent closed")
	}
	s.seen.put(id, -1)
	s.pending[id] = ch
	targets := make([]*peerConn, 0, len(s.conns))
	for _, c := range s.conns {
		targets = append(targets, c)
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
	}()

	payload := (&wire.Query{Search: text}).Marshal()
	msg := &wire.Message{ID: id, Type: wire.TypeQuery, TTL: ttl, Payload: payload}
	for _, c := range targets {
		_ = c.send(msg)
	}
	// A stopped timer is gone; time.After's would sit in the runtime's
	// heap for the whole timeout after the hit came back.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case hit := <-ch:
		return hit, nil
	case <-timer.C:
		return nil, fmt.Errorf("vantage: no hit for %q within %v", text, timeout)
	}
}

// matchLibrary returns the library's files whose name contains every
// token of the search string — the conjunctive keyword matching of classic
// servents, answered from the inverted index — as the result set of the
// hit that answers it.
func matchLibrary(ix *keyword.Index, lib []SharedFile, search string) []wire.Result {
	ids := ix.Query(search)
	if len(ids) == 0 {
		return nil
	}
	out := make([]wire.Result, len(ids))
	for i, id := range ids {
		f := &lib[id]
		out[i] = wire.Result{FileIndex: f.Index, FileSize: f.Size, FileName: f.Name}
	}
	return out
}
