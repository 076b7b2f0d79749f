package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The on-disk format is JSON Lines: one record per line, with a one-byte
// kind tag so queries, replies, and pairs can share a file the way the
// original capture interleaved message types.

type taggedRecord struct {
	Kind  string `json:"k"` // "q", "r", or "p"
	Query *Query `json:"q,omitempty"`
	Reply *Reply `json:"r,omitempty"`
	Pair  *Pair  `json:"p,omitempty"`
}

// Writer encodes trace records as JSON Lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// WriteQuery appends one query record.
func (w *Writer) WriteQuery(q Query) error {
	return w.enc.Encode(taggedRecord{Kind: "q", Query: &q})
}

// WriteReply appends one reply record.
func (w *Writer) WriteReply(r Reply) error {
	return w.enc.Encode(taggedRecord{Kind: "r", Reply: &r})
}

// WritePair appends one query–reply pair record.
func (w *Writer) WritePair(p Pair) error {
	return w.enc.Encode(taggedRecord{Kind: "p", Pair: &p})
}

// Flush writes any buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadAll decodes an entire stream into its queries, replies, and pairs.
func ReadAll(rd io.Reader) (qs []Query, rs []Reply, ps []Pair, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec taggedRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch {
		case rec.Kind == "q" && rec.Query != nil:
			qs = append(qs, *rec.Query)
		case rec.Kind == "r" && rec.Reply != nil:
			rs = append(rs, *rec.Reply)
		case rec.Kind == "p" && rec.Pair != nil:
			ps = append(ps, *rec.Pair)
		case rec.Kind == "q" || rec.Kind == "r" || rec.Kind == "p":
			return nil, nil, nil, fmt.Errorf("trace: line %d: kind %s without its record", line, rec.Kind)
		default:
			return nil, nil, nil, fmt.Errorf("trace: line %d: unknown kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	return qs, rs, ps, nil
}
