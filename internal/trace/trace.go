// Package trace defines the query/reply trace data model used throughout
// the repository: the records a vantage node logs (paper §IV-A), the
// query–reply pairs the simulator consumes, and streaming block
// iteration. Turning the former into the latter is db.Import.
//
// The paper collected a 7-day trace at a modified Gnutella node, recording
// for each query the query string, time, forwarding neighbor, and GUID, and
// for each reply the time, GUID, sending neighbor, hosting peer, and file
// name. We keep the same schema; hosts are compact integer identifiers
// rather than IP addresses, and GUIDs are 64-bit rather than Gnutella's
// 128-bit, which changes nothing observable at simulation scale.
package trace

import "fmt"

// HostID identifies a peer (a neighbor of the vantage node, or a content
// host elsewhere in the network). The zero value is reserved as "no host".
type HostID uint32

// NoHost is the reserved empty HostID.
const NoHost HostID = 0

// HostOf maps a 0-based id (a simulator node, a servent's connection or a
// peer's node id) into the HostID space by shifting it up by one, so that
// id 0 stays distinguishable from NoHost and id -1, "no upstream", lands
// on NoHost itself.
func HostOf(id int) HostID { return HostID(uint32(id) + 1) }

// IDOf inverts HostOf: NoHost maps back to -1.
func IDOf(h HostID) int { return int(h) - 1 }

// String renders the host as a dotted quad, purely cosmetic, mirroring the
// IP addresses the original trace recorded.
func (h HostID) String() string {
	v := uint32(h)
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// GUID is the globally-unique identifier a querying node assigns to a
// query; replies carry the GUID of the query they answer. As the paper
// observed, clients in the wild generate colliding GUIDs, so uniqueness
// must be enforced at import time (see db.Import).
type GUID uint64

// InterestID labels the interest category a query falls into. The original
// trace has free-text query strings; the generator synthesizes a string per
// interest, and analysis code uses the category directly.
type InterestID int32

// Query is one query message observed at the vantage node.
type Query struct {
	GUID     GUID       `json:"guid"`
	Time     int64      `json:"t"`        // virtual time units since trace start
	Source   HostID     `json:"src"`      // neighbor that forwarded the query
	Interest InterestID `json:"interest"` // category of the query string
	Text     string     `json:"text,omitempty"`
}

// Reply is one query-hit message observed at the vantage node.
type Reply struct {
	GUID     GUID   `json:"guid"`
	Time     int64  `json:"t"`
	From     HostID `json:"from"` // neighbor the reply arrived through
	Host     HostID `json:"host"` // peer hosting the matching file
	Filename string `json:"file,omitempty"`
}

// Pair is the join of a query with a reply to it — the unit the paper's
// simulator operates on ("blocks" are runs of consecutive pairs). Source is
// the antecedent candidate and Replier the consequent candidate for rule
// generation. It carries no times (they stay on the Query and Reply), so a
// pair is 24 bytes; an older file's "qt"/"rt" keys decode to nothing.
type Pair struct {
	GUID     GUID       `json:"guid"`
	Source   HostID     `json:"src"`
	Replier  HostID     `json:"replier"`
	Interest InterestID `json:"interest"`
}

// Block is a fixed-size run of consecutive query–reply pairs. The default
// experimental block size in the paper is 10,000 pairs.
type Block []Pair

// Source yields successive blocks of query–reply pairs. Implementations
// include the in-memory Store, the streaming synthetic generator, and
// decoded trace files. Next returns ok=false when the trace is exhausted;
// the returned block must not be retained across calls unless copied.
// Consumers honor this by folding each block into derived state before the
// next call: the core policies reduce blocks to pair-count deltas in
// core.PairIndex rather than keeping the slices.
type Source interface {
	// Next returns the next block and true, or nil and false at end.
	Next() (Block, bool)
	// BlockSize reports the nominal pairs-per-block of this source.
	BlockSize() int
}

// SliceSource adapts a pre-materialized pair slice into a Source.
type SliceSource struct {
	pairs []Pair
	size  int
	off   int
}

// NewSliceSource returns a Source that serves pairs in blocks of size
// pairs-per-block. Trailing pairs that do not fill a block are served as a
// final short block. size must be positive.
func NewSliceSource(pairs []Pair, size int) *SliceSource {
	if size <= 0 {
		panic("trace: NewSliceSource requires size > 0")
	}
	return &SliceSource{pairs: pairs, size: size}
}

// Next implements Source.
func (s *SliceSource) Next() (Block, bool) {
	if s.off >= len(s.pairs) {
		return nil, false
	}
	end := s.off + s.size
	if end > len(s.pairs) {
		end = len(s.pairs)
	}
	b := Block(s.pairs[s.off:end])
	s.off = end
	return b, true
}

// BlockSize implements Source.
func (s *SliceSource) BlockSize() int { return s.size }
