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

// Reader decodes trace records written by Writer.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// newReader returns a Reader on r.
func newReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Reader{sc: sc}
}

// next decodes the next record, returning exactly one non-nil pointer among
// the three, or io.EOF at end of input.
func (r *Reader) next() (*Query, *Reply, *Pair, error) {
	for r.sc.Scan() {
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec taggedRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, nil, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		switch rec.Kind {
		case "q":
			if rec.Query == nil {
				return nil, nil, nil, fmt.Errorf("trace: line %d: kind q without query", r.line)
			}
			return rec.Query, nil, nil, nil
		case "r":
			if rec.Reply == nil {
				return nil, nil, nil, fmt.Errorf("trace: line %d: kind r without reply", r.line)
			}
			return nil, rec.Reply, nil, nil
		case "p":
			if rec.Pair == nil {
				return nil, nil, nil, fmt.Errorf("trace: line %d: kind p without pair", r.line)
			}
			return nil, nil, rec.Pair, nil
		default:
			return nil, nil, nil, fmt.Errorf("trace: line %d: unknown kind %q", r.line, rec.Kind)
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	return nil, nil, nil, io.EOF
}

// ReadAll decodes an entire stream into its queries, replies, and pairs.
func ReadAll(rd io.Reader) (qs []Query, rs []Reply, ps []Pair, err error) {
	r := newReader(rd)
	for {
		q, rp, p, err := r.next()
		if err == io.EOF {
			return qs, rs, ps, nil
		}
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case q != nil:
			qs = append(qs, *q)
		case rp != nil:
			rs = append(rs, *rp)
		case p != nil:
			ps = append(ps, *p)
		}
	}
}
