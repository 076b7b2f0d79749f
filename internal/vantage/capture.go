package vantage

import (
	"encoding/binary"
	"strconv"
	"strings"
	"sync"
	"time"

	"arq/internal/db"
	"arq/internal/trace"
	"arq/internal/wire"
)

// Capture is the recording half of the paper's modified node: it logs the
// queries a servent relays (string, time, forwarding neighbor, GUID) and
// the replies that return (time, GUID, sending neighbor, host, file name)
// — exactly the fields §IV-A lists — as trace records ready for the
// import pipeline.
type Capture struct {
	mu      sync.Mutex
	start   time.Time
	queries []trace.Query
	replies []trace.Reply
}

// NewCapture returns an empty capture.
func NewCapture() *Capture {
	return &Capture{start: time.Now()}
}

// compactGUID folds a 16-byte wire GUID into the 64-bit trace GUID. The
// fold XORs both halves so reused wire GUIDs keep colliding (the paper's
// misbehaving clients) while distinct ones almost never do.
func compactGUID(g wire.GUID) trace.GUID {
	lo := binary.LittleEndian.Uint64(g[:8])
	hi := binary.LittleEndian.Uint64(g[8:])
	return trace.GUID(lo ^ (hi * 0x9e3779b97f4a7c15))
}

func (c *Capture) now() int64 {
	return int64(time.Since(c.start) / time.Microsecond)
}

func (c *Capture) recordQuery(connID int, id wire.GUID, search string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries = append(c.queries, trace.Query{
		GUID:     compactGUID(id),
		Time:     c.now(),
		Source:   trace.HostOf(connID),
		Interest: interestOf(search),
		Text:     search,
	})
}

func (c *Capture) recordReply(connID int, id wire.GUID, hit *wire.QueryHit) {
	name := ""
	if len(hit.Results) > 0 {
		name = hit.Results[0].FileName
	}
	var host trace.HostID
	if b := hit.ServentID[0]; b != 0 {
		host = trace.HostID(b)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replies = append(c.replies, trace.Reply{
		GUID:     compactGUID(id),
		Time:     c.now(),
		From:     trace.HostOf(connID),
		Host:     host,
		Filename: name,
	})
}

// Snapshot returns copies of the captured queries and replies.
func (c *Capture) Snapshot() ([]trace.Query, []trace.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	qs := append([]trace.Query(nil), c.queries...)
	rs := append([]trace.Reply(nil), c.replies...)
	return qs, rs
}

// Pairs runs the §IV-A import over the capture, yielding the query-reply
// pairs the simulator consumes.
func (c *Capture) Pairs() []trace.Pair {
	qs, rs := c.Snapshot()
	imp, _ := db.Import(qs, rs) // the error is always nil
	return imp.PairSlice()
}

// interestOf recovers an interest category from a query string: strings of
// the form "topic-NNN ..." (the synthetic generator's format) map to NNN,
// anything else to a stable hash bucket.
func interestOf(search string) trace.InterestID {
	if rest, ok := strings.CutPrefix(search, "topic-"); ok {
		end := 0
		for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
			end++
		}
		if end > 0 {
			if n, err := strconv.Atoi(rest[:end]); err == nil {
				return trace.InterestID(n)
			}
		}
	}
	h := uint32(2166136261)
	for i := 0; i < len(search); i++ {
		h = (h ^ uint32(search[i])) * 16777619
	}
	return trace.InterestID(h % 1024)
}
