// Package wire implements the Gnutella 0.4 wire protocol — the protocol
// spoken by the modified node that collected the paper's trace (§IV-A):
// the connect handshake, the 23-byte descriptor header, and the Ping,
// Pong, Query, and QueryHit payloads. internal/vantage builds the
// trace-capturing servent on top of it, and the loopback integration tests
// drive real TCP connections through net.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Descriptor type codes of the 0.4 protocol.
const (
	TypePing     byte = 0x00
	TypePong     byte = 0x01
	TypeQuery    byte = 0x80
	TypeQueryHit byte = 0x81
)

// GUID is the 16-byte descriptor identifier.
type GUID [16]byte

// headerLen is the fixed descriptor header size: GUID(16) + type(1) +
// TTL(1) + hops(1) + payload length(4).
const headerLen = 23

// HeaderLen is the fixed descriptor header size in bytes, exported for
// transports that account wire bytes per frame.
const HeaderLen = headerLen

// maxPayload bounds accepted payloads; real servents enforced similar
// limits to survive malformed peers.
const maxPayload = 64 * 1024

// Message is one Gnutella descriptor: header plus raw payload.
type Message struct {
	ID      GUID
	Type    byte
	TTL     byte
	Hops    byte
	Payload []byte
}

// errTooLarge reports a payload length beyond maxPayload.
var errTooLarge = errors.New("wire: payload too large")

// WireSize returns the encoded size of the descriptor in bytes.
func (m *Message) WireSize() int { return headerLen + len(m.Payload) }

// Encode writes the descriptor to w in wire format.
func (m *Message) Encode(w io.Writer) error {
	if len(m.Payload) > maxPayload {
		return errTooLarge
	}
	var hdr [headerLen]byte
	copy(hdr[:16], m.ID[:])
	hdr[16] = m.Type
	hdr[17] = m.TTL
	hdr[18] = m.Hops
	binary.LittleEndian.PutUint32(hdr[19:], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// Decode reads one descriptor from r.
func Decode(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[19:])
	if n > maxPayload {
		return nil, errTooLarge
	}
	m := &Message{Type: hdr[16], TTL: hdr[17], Hops: hdr[18]}
	copy(m.ID[:], hdr[:16])
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Query is the 0x80 payload: minimum speed plus the search string.
type Query struct {
	MinSpeed uint16
	Search   string
}

// Marshal renders the payload bytes.
func (q *Query) Marshal() []byte {
	out := make([]byte, 2+len(q.Search)+1)
	binary.LittleEndian.PutUint16(out, q.MinSpeed)
	copy(out[2:], q.Search)
	return out
}

// QuerySearch checks the shape of a 0x80 payload and returns the bytes of
// its search string, a view into p: what a relaying servent needs before
// it has decided whether the query is a duplicate.
func QuerySearch(p []byte) ([]byte, error) {
	if len(p) < 3 {
		return nil, errors.New("wire: query payload too short")
	}
	if p[len(p)-1] != 0 {
		return nil, errors.New("wire: query search string not terminated")
	}
	return p[2 : len(p)-1], nil
}

// UnmarshalQuery parses a 0x80 payload.
func UnmarshalQuery(p []byte) (*Query, error) {
	search, err := QuerySearch(p)
	if err != nil {
		return nil, err
	}
	return &Query{
		MinSpeed: binary.LittleEndian.Uint16(p),
		Search:   string(search),
	}, nil
}

// Result is one entry of a QueryHit result set.
type Result struct {
	FileIndex uint32
	FileSize  uint32
	FileName  string
}

// QueryHit is the 0x81 payload: responder address, result set, servent ID.
type QueryHit struct {
	Port      uint16
	IPv4      [4]byte
	Speed     uint32
	Results   []Result
	ServentID GUID
}

// hitFixedLen is the part of a 0x81 payload outside the result set: count,
// port, address and speed in front (11 bytes), the servent id behind.
const hitFixedLen = 11 + 16

// Marshal renders the payload bytes.
func (h *QueryHit) Marshal() ([]byte, error) {
	if len(h.Results) > 255 {
		return nil, errors.New("wire: too many results for one query hit")
	}
	size := hitFixedLen
	for i := range h.Results {
		size += 8 + len(h.Results[i].FileName) + 2
	}
	out := make([]byte, 0, size)
	out = append(out, byte(len(h.Results)))
	out = binary.LittleEndian.AppendUint16(out, h.Port)
	out = append(out, h.IPv4[:]...)
	out = binary.LittleEndian.AppendUint32(out, h.Speed)
	for i := range h.Results {
		r := &h.Results[i]
		out = binary.LittleEndian.AppendUint32(out, r.FileIndex)
		out = binary.LittleEndian.AppendUint32(out, r.FileSize)
		out = append(out, r.FileName...)
		out = append(out, 0, 0) // terminator + empty extension block
	}
	out = append(out, h.ServentID[:]...)
	return out, nil
}

// nextResult splits result i off the front of a result set: its two fixed
// fields, its name (a view into rest), and what follows its double-zero
// end. It is the one statement of what a well-formed result is.
func nextResult(rest []byte, i int) (index, size uint32, name, tail []byte, err error) {
	if len(rest) < 10 {
		return 0, 0, nil, nil, fmt.Errorf("wire: truncated result %d", i)
	}
	n := bytes.IndexByte(rest[8:], 0)
	if n < 0 || 8+n+1 >= len(rest) || rest[8+n+1] != 0 {
		return 0, 0, nil, nil, fmt.Errorf("wire: unterminated result name %d", i)
	}
	return binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:]), rest[8 : 8+n], rest[8+n+2:], nil
}

// CheckQueryHit reports whether p is a well-formed 0x81 payload, which is
// all UnmarshalQueryHit asks of one, and allocates nothing when it is. A
// servent that only forwards a hit along the reverse path checks it with
// this and sends the bytes on.
func CheckQueryHit(p []byte) error {
	if len(p) < hitFixedLen {
		return errors.New("wire: query hit payload too short")
	}
	rest := p[11 : len(p)-16]
	for i, n := 0, int(p[0]); i < n; i++ {
		var err error
		if _, _, _, rest, err = nextResult(rest, i); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return errors.New("wire: trailing bytes in query hit")
	}
	return nil
}

// UnmarshalQueryHit parses a 0x81 payload: whatever CheckQueryHit passes.
func UnmarshalQueryHit(p []byte) (*QueryHit, error) {
	if err := CheckQueryHit(p); err != nil {
		return nil, err
	}
	h := &QueryHit{
		Port:    binary.LittleEndian.Uint16(p[1:]),
		Speed:   binary.LittleEndian.Uint32(p[7:11]),
		Results: make([]Result, p[0]),
	}
	copy(h.IPv4[:], p[3:7])
	copy(h.ServentID[:], p[len(p)-16:])
	// One string holds the whole result set; each FileName is a slice of it.
	rest := p[11 : len(p)-16]
	set := string(rest)
	for i := range h.Results {
		r := &h.Results[i]
		at := len(set) - len(rest) + 8
		var name []byte
		r.FileIndex, r.FileSize, name, rest, _ = nextResult(rest, i)
		r.FileName = set[at : at+len(name)]
	}
	return h, nil
}

// Pong is the 0x01 payload: responder address and shared-library size.
type Pong struct {
	Port   uint16
	IPv4   [4]byte
	Files  uint32
	Kbytes uint32
}

// Marshal renders the payload bytes.
func (p *Pong) Marshal() []byte {
	out := make([]byte, 14)
	binary.LittleEndian.PutUint16(out, p.Port)
	copy(out[2:6], p.IPv4[:])
	binary.LittleEndian.PutUint32(out[6:], p.Files)
	binary.LittleEndian.PutUint32(out[10:], p.Kbytes)
	return out
}

// UnmarshalPong parses a 0x01 payload.
func UnmarshalPong(b []byte) (*Pong, error) {
	if len(b) != 14 {
		return nil, errors.New("wire: pong payload must be 14 bytes")
	}
	p := &Pong{}
	p.Port = binary.LittleEndian.Uint16(b)
	copy(p.IPv4[:], b[2:6])
	p.Files = binary.LittleEndian.Uint32(b[6:])
	p.Kbytes = binary.LittleEndian.Uint32(b[10:])
	return p, nil
}

// Handshake strings of the 0.4 protocol.
const (
	connectRequest = "GNUTELLA CONNECT/0.4\n\n"
	connectOK      = "GNUTELLA OK\n\n"
)

// ClientHandshake performs the initiator side of the connect handshake.
func ClientHandshake(rw io.ReadWriter) error {
	if _, err := io.WriteString(rw, connectRequest); err != nil {
		return err
	}
	return expect(rw, connectOK)
}

// ServerHandshake performs the acceptor side of the connect handshake.
func ServerHandshake(rw io.ReadWriter) error {
	if err := expect(rw, connectRequest); err != nil {
		return err
	}
	_, err := io.WriteString(rw, connectOK)
	return err
}

func expect(r io.Reader, want string) error {
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if string(buf) != want {
		return fmt.Errorf("wire: bad handshake %q", buf)
	}
	return nil
}
