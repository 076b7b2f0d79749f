package transport

// Self-healing: the connection supervisor and the heartbeat liveness
// probe. The transport's core treats every connection death as final —
// a timed-out or errored Conn is reaped and forgotten. Supervise layers
// intent on top: the caller declares which peers it wants connections
// to (by advertised listen addr), and the supervisor redials whenever
// the link dies, with capped jittered exponential backoff so a crashed
// peer is not hammered and a restarted one is found within a couple of
// backoff periods. Heartbeats close the detection gap from the other
// side: an idle connection gets periodic pings with a miss budget, so a
// silently dead peer is declared dead in a few heartbeat periods
// instead of waiting out the full ReadIdle reap.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"arq/internal/wire"
)

// heartbeatMagic is the GUID every liveness frame carries. Like the
// hello, it is transport-internal protocol: readLoop answers pings and
// absorbs pongs without ever involving the Handler.
var heartbeatMagic = wire.GUID{'A', 'R', 'Q', '-', 'T', 'R', 'A', 'N', 'S', 'P', 'O', 'R', 'T', '-', 'H', 'B'}

// Supervise dials addr and keeps it dialed: when the connection dies —
// read timeout, write error, heartbeat miss budget, remote crash — the
// supervisor redials with capped jittered exponential backoff
// (Options.RedialBase doubling to redialMax, full jitter) until the
// peer answers or the transport closes. Each successful redial counts
// transport.reconnects and runs OnConn like any dialed connection;
// failed attempts count transport.reconnect_failures.
//
// The initial dial is synchronous and NOT counted as a reconnect: its
// error is returned and nothing is supervised, so a misconfigured addr
// fails loudly instead of retrying forever. Supervising the same addr
// twice is an error.
func (t *Transport) Supervise(addr string) (*Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: closed")
	}
	if _, ok := t.sup[addr]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: %s already supervised", addr)
	}
	t.sup[addr] = struct{}{}
	// Register with the WaitGroup while closed is known false: shutdown
	// cannot be between its wg.Wait and a later Add.
	t.wg.Add(1)
	t.mu.Unlock()

	c, err := t.Dial(addr)
	if err != nil {
		t.mu.Lock()
		delete(t.sup, addr)
		t.mu.Unlock()
		t.wg.Done()
		return nil, err
	}
	go t.superviseLoop(addr, c)
	return c, nil
}

func (t *Transport) superviseLoop(addr string, c *Conn) {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		select {
		case <-c.done:
		case <-t.stop:
			return
		}
		backoff := t.opts.RedialBase
		for {
			nc, err := t.Dial(addr)
			if err == nil {
				mReconnects.Inc()
				c = nc
				break
			}
			mReconnectFails.Inc()
			// Full jitter: sleep a uniform fraction of the current
			// backoff, so a cluster of supervisors redialing one
			// restarted peer spreads out instead of thundering.
			select {
			case <-time.After(time.Duration(rng.Int63n(int64(backoff) + 1))):
			case <-t.stop:
				return
			}
			backoff = min(2*backoff, redialMax)
		}
	}
}

// heartbeatLoop probes an idle connection. A tick that finds the inbound
// frame count where the previous tick left it ends a silent period: the
// connection gets a ping (transport.heartbeats), and if the period before
// was silent too, the ping sent then went unanswered and counts a miss
// (transport.probe_misses); at HeartbeatMisses misses the connection is
// closed as dead, which is exactly what wakes its supervisor. Any inbound
// frame — pong or application traffic — resets the budget. The rule reads
// no clock: an answer that lands anywhere between two ticks counts, so a
// healthy link never sits at the edge of a time comparison. And each tick
// is timed from when the one before was taken, not from a fixed schedule,
// so ticks that a starved process would bunch cannot cut a period short.
func (c *Conn) heartbeatLoop() {
	defer c.t.wg.Done()
	tick := time.NewTimer(c.t.opts.HeartbeatEvery)
	defer tick.Stop()
	misses, probed := 0, false
	seen := c.framesIn.Load()
	for {
		select {
		case <-c.done:
			return
		case <-c.t.stop:
			return
		case <-tick.C:
		}
		tick.Reset(c.t.opts.HeartbeatEvery)
		if n := c.framesIn.Load(); n != seen {
			seen, misses, probed = n, 0, false
			continue
		}
		if probed {
			misses++
			mProbeMisses.Inc()
			if misses >= c.t.opts.HeartbeatMisses {
				c.close()
				return
			}
		}
		mHeartbeats.Inc()
		c.enqueue(outFrame{m: &wire.Message{ID: heartbeatMagic, Type: wire.TypePing, TTL: 1}})
		probed = true
	}
}
