package transport

// Socket-boundary fault injection: the same fault.Injector the
// simulator engines consult is re-targeted here at real TCP edges
// between processes. These tests pin the transport-level semantics of
// each fate (drop, delay, duplicate, corrupt, partition, down) and —
// via a helper process — that a node killed mid-workload cannot hang
// its peers.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"testing"
	"time"

	"arq/internal/fault"
	"arq/internal/obsv"
	"arq/internal/wire"
)

// fixedFate returns the same fate for every send and reports a fixed
// set of nodes as down — the transport twin of vantage's fateInjector.
type fixedFate struct {
	fate fault.Fate
	down map[int]bool
}

func (f *fixedFate) OnSend(_, _ int) fault.Fate { return f.fate }
func (f *fixedFate) Down(u int) bool            { return f.down[u] }
func (f *fixedFate) Tick()                      {}

// dialPair wires a -> b with the given fault injector on a's side and
// returns the dialer transport, the outbound conn, and b's collector.
func dialPair(t *testing.T, inj fault.Injector, extra func(*Options)) (*Conn, *collect) {
	t.Helper()
	got := &collect{}
	b := listen(t, Options{NodeID: 2, Handler: got.handle})
	opts := Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}, Fault: inj}
	if extra != nil {
		extra(&opts)
	}
	a := listen(t, opts)
	c, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return c, got
}

// An injected drop is a network loss, not backpressure: Send reports
// true, nothing reaches the peer, and the drop is accounted.
func TestFaultDropAtSocket(t *testing.T) {
	c, got := dialPair(t, &fixedFate{fate: fault.Fate{Drop: true}}, nil)
	drops0 := obsv.GetCounter("transport.fault_drops").Value()
	out0 := obsv.GetCounter("transport.msgs_out").Value()
	const n = 30
	for i := 0; i < n; i++ {
		if !c.Send(queryMsg(byte(i))) {
			t.Fatalf("send %d rejected — a dropped frame must look sent", i)
		}
	}
	if d := obsv.GetCounter("transport.fault_drops").Value() - drops0; d != n {
		t.Fatalf("fault_drops = %d, want %d", d, n)
	}
	c.CloseDrain(time.Second)
	if got.count() != 0 {
		t.Fatalf("peer received %d frames across a dropping edge", got.count())
	}
	if o := obsv.GetCounter("transport.msgs_out").Value() - out0; o != 0 {
		t.Fatalf("msgs_out = %d across a dropping edge", o)
	}
}

// An injected delay holds the frame in the write loop — slow-link
// semantics: delivery is late but complete and in order.
func TestFaultDelayAtSocket(t *testing.T) {
	const delaySteps = 30 // x DelayUnit(1ms) = 30ms per frame
	c, got := dialPair(t, &fixedFate{fate: fault.Fate{Delay: delaySteps}},
		func(o *Options) { o.DelayUnit = time.Millisecond })
	del0 := obsv.GetCounter("transport.fault_delays").Value()
	start := time.Now()
	const n = 3
	for i := 0; i < n; i++ {
		c.Send(queryMsg(byte(i)))
	}
	waitFor(t, 5*time.Second, func() bool { return got.count() == n }, "delayed frames")
	if el := time.Since(start); el < n*delaySteps*time.Millisecond {
		t.Fatalf("%d frames delivered in %v, each should sleep %dms", n, el, delaySteps)
	}
	if d := obsv.GetCounter("transport.fault_delays").Value() - del0; d != n {
		t.Fatalf("fault_delays = %d, want %d", d, n)
	}
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, m := range got.frames {
		if m.ID[0] != byte(i) {
			t.Fatalf("frame %d has id %d: a slow link must not reorder", i, m.ID[0])
		}
	}
}

// Duplicate delivers the frame twice; Corrupt flips GUID bits on a copy
// so the caller's message stays intact for other peers.
func TestFaultDuplicateAndCorruptAtSocket(t *testing.T) {
	c, got := dialPair(t, &fixedFate{fate: fault.Fate{Duplicate: true}}, nil)
	const n = 10
	for i := 0; i < n; i++ {
		c.Send(queryMsg(byte(i)))
	}
	waitFor(t, 2*time.Second, func() bool { return got.count() == 2*n }, "duplicated frames")

	c2, got2 := dialPair(t, &fixedFate{fate: fault.Fate{Corrupt: true}}, nil)
	orig := queryMsg(5)
	want := orig.ID
	c2.Send(orig)
	waitFor(t, 2*time.Second, func() bool { return got2.count() == 1 }, "corrupted frame")
	if orig.ID != want {
		t.Fatal("corruption mutated the caller's message, not a copy")
	}
	got2.mu.Lock()
	seen := got2.frames[0].ID
	got2.mu.Unlock()
	if seen == want {
		t.Fatal("frame arrived with an uncorrupted GUID")
	}
}

// A fault.Partition at the socket boundary: data frames cross edges
// inside a group and die on edges between groups. Dial and handshake
// are not subject to the injector — a partition severs traffic, not
// TCP — so the overlay holds its sockets and heals when the partition
// lifts.
func TestPartitionAtSocket(t *testing.T) {
	part := fault.NewPartition([]int{1, 2}) // node 3 is implicit group 0
	gotSame := &collect{}
	gotOther := &collect{}
	same := listen(t, Options{NodeID: 2, Handler: gotSame.handle})
	other := listen(t, Options{NodeID: 3, Handler: gotOther.handle})
	a := listen(t, Options{NodeID: 1, Handler: func(*Conn, *wire.Message) {}, Fault: part})
	cSame, err := a.Dial(same.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cOther, err := a.Dial(other.Addr())
	if err != nil {
		t.Fatal("dial across partition must still connect:", err)
	}
	pd0 := obsv.GetCounter("fault.partition_drops").Value()
	const n = 15
	for i := 0; i < n; i++ {
		cSame.Send(queryMsg(byte(i)))
		cOther.Send(queryMsg(byte(i)))
	}
	waitFor(t, 2*time.Second, func() bool { return gotSame.count() == n }, "in-group frames")
	if d := obsv.GetCounter("fault.partition_drops").Value() - pd0; d != n {
		t.Fatalf("partition_drops = %d, want %d", d, n)
	}
	if gotOther.count() != 0 {
		t.Fatalf("%d frames crossed the partition", gotOther.count())
	}
}

// A peer the injector marks down swallows sends at the source, exactly
// like the simulator engines' down-drop path.
func TestDownPeerDropsAtSender(t *testing.T) {
	c, got := dialPair(t, &fixedFate{down: map[int]bool{2: true}}, nil)
	dd0 := obsv.GetCounter("fault.down_drops").Value()
	const n = 8
	for i := 0; i < n; i++ {
		if !c.Send(queryMsg(byte(i))) {
			t.Fatalf("send %d to a down peer rejected; it must be silently lost", i)
		}
	}
	if d := obsv.GetCounter("fault.down_drops").Value() - dd0; d != n {
		t.Fatalf("down_drops = %d, want %d", d, n)
	}
	c.CloseDrain(time.Second)
	if got.count() != 0 {
		t.Fatalf("down peer received %d frames", got.count())
	}
}

// helperEnv marks the re-exec'd child; its value is the file the child
// writes its listen address to.
const helperEnv = "ARQ_TRANSPORT_HELPER_ADDRFILE"

// TestHelperNode is not a test: re-exec'd by TestKilledNodeDoesNotHangPeers,
// it listens, advertises its address through the addr file, and stays
// up until the parent kills the process.
func TestHelperNode(t *testing.T) {
	addrFile := os.Getenv(helperEnv)
	if addrFile == "" {
		t.Skip("helper process entry point")
	}
	tr, err := Listen("127.0.0.1:0", Options{NodeID: 99, Handler: func(*Conn, *wire.Message) {}})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(addrFile, []byte(tr.Addr()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	time.Sleep(60 * time.Second) // killed long before this backstop
}

// A node killed mid-workload must not hang its peers: deadline-based
// reads and writes reap the dead connection, every Send stays bounded,
// and the shed accounting settles to the attempt count.
func TestKilledNodeDoesNotHangPeers(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "child.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperNode$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnv+"="+addrFile)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	var addr string
	waitFor(t, 10*time.Second, func() bool {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			addr = string(b)
			return true
		}
		return false
	}, "helper node address (log at "+logFile.Name()+")")

	a := listen(t, Options{
		NodeID: 1, Handler: func(*Conn, *wire.Message) {},
		OutboxCap: 16, SendWait: time.Nanosecond,
		ReadIdle: 200 * time.Millisecond, WriteWait: time.Second,
	})
	c, err := a.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	out0 := obsv.GetCounter("transport.msgs_out").Value()
	sheds0 := obsv.GetCounter("transport.queue_sheds").Value()
	disc0 := obsv.GetCounter("transport.close_discards").Value()
	werr0 := obsv.GetCounter("transport.write_errors").Value()

	// Stream frames; kill the peer mid-workload; keep streaming. Every
	// Send must return promptly (the test's own deadline is the hang
	// detector) and the dead conn must be reaped.
	attempts := 0
	send := func(n int) {
		for i := 0; i < n; i++ {
			c.Send(queryMsg(byte(i)))
			attempts++
		}
	}
	send(100)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for a.NumConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead peer's connection never reaped")
		}
		send(10)
		time.Sleep(5 * time.Millisecond)
	}
	// The conn is closed: further sends resolve instantly into sheds.
	send(50)

	waitFor(t, 5*time.Second, func() bool {
		out := obsv.GetCounter("transport.msgs_out").Value() - out0
		sheds := obsv.GetCounter("transport.queue_sheds").Value() - sheds0
		disc := obsv.GetCounter("transport.close_discards").Value() - disc0
		werr := obsv.GetCounter("transport.write_errors").Value() - werr0
		return out+sheds+disc+werr == int64(attempts)
	}, "shed accounting to settle after peer death")
}
