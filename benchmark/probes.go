package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"arq/internal/keyword"
	"arq/internal/scenario"
	"arq/internal/stream"
	"arq/internal/transport"
	"arq/internal/wire"
)

// perOp times iters calls of f and returns the mean nanoseconds of one.
func perOp(iters int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(iters)
}

// probeSocketPath times, one layer at a time and with nothing else running,
// the steps a mesh search is made of: one transport hop, the wire codec on
// the workload's own frames, the library match, and the outbox ring.
func probeSocketPath(r *run, plan scenario.ClusterPlan, needle string) error {
	iters := r.sz.probeIters
	if err := probeHop(r, iters/10); err != nil {
		return err
	}

	var sink error
	query := &wire.Message{Type: wire.TypeQuery, TTL: searchTTL, Payload: (&wire.Query{Search: needle}).Marshal()}
	var buf bytes.Buffer
	r.layer["wire.encode_ns"] = perOp(iters, func() {
		buf.Reset()
		sink = query.Encode(&buf)
	})
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	r.layer["wire.decode_ns"] = perOp(iters, func() {
		rd.Reset(frame)
		_, sink = wire.Decode(rd)
	})
	r.layer["wire.query_frame_bytes"] = float64(query.WireSize())

	lib := plan.Library(0)
	hit := &wire.QueryHit{}
	ix := keyword.NewIndex()
	for i, f := range lib {
		hit.Results = append(hit.Results, wire.Result{FileIndex: uint32(i + 1), FileSize: f.Size, FileName: f.Name})
		ix.Add(int32(i), f.Name)
	}
	var payload []byte
	r.layer["wire.hit_marshal_ns"] = perOp(iters, func() { payload, sink = hit.Marshal() })
	r.layer["wire.hit_unmarshal_ns"] = perOp(iters, func() { _, sink = wire.UnmarshalQueryHit(payload) })
	r.layer["wire.hit_frame_bytes"] = float64(wire.HeaderLen + len(payload))
	if sink != nil {
		return fmt.Errorf("wire probe: %w", sink)
	}

	r.layer["keyword.query_ns"] = perOp(iters, func() { ix.Query(needle) })
	r.layer["keyword.query_broad_ns"] = perOp(iters, func() { ix.Query(broadText) })

	ring := stream.NewDropRing[int](transport.DefaultOutboxCap)
	r.layer["stream.dropring.push_pop_ns"] = perOp(iters, func() {
		ring.Push(1)
		ring.TryPop()
	})
	return nil
}

// probeHop bounces a Ping off a second bare transport node: one hop there
// and one back, through the same outbox, write loop and read loop a
// servent's frames take, with no servent logic on either side.
func probeHop(r *run, iters int) error {
	echo, err := transport.Listen("127.0.0.1:0", transport.Options{Handler: func(c *transport.Conn, m *wire.Message) {
		if m.Type == wire.TypePing {
			c.Send(&wire.Message{ID: m.ID, Type: wire.TypePong, TTL: 1})
		}
	}})
	if err != nil {
		return fmt.Errorf("hop probe: %w", err)
	}
	defer echo.Close()
	pong := make(chan struct{}, 1)
	caller, err := transport.Listen("127.0.0.1:0", transport.Options{Handler: func(c *transport.Conn, m *wire.Message) {
		if m.Type == wire.TypePong {
			pong <- struct{}{}
		}
	}})
	if err != nil {
		return fmt.Errorf("hop probe: %w", err)
	}
	defer caller.Close()
	conn, err := caller.Dial(echo.Addr())
	if err != nil {
		return fmt.Errorf("hop probe: %w", err)
	}
	ping := &wire.Message{ID: wire.GUID{1}, Type: wire.TypePing, TTL: 1}
	var rtt, send []float64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		sent := conn.Send(ping)
		t1 := time.Now()
		if !sent {
			return errors.New("hop probe: ping shed")
		}
		select {
		case <-pong:
		case <-time.After(searchTimeout):
			return errors.New("hop probe: no pong")
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
		send = append(send, float64(t1.Sub(t0)))
	}
	r.layer["transport.hop_rtt_p50_us"] = median(rtt)
	r.layer["transport.send_ns"] = median(send)
	return nil
}
