package vantage

import (
	"testing"
	"time"

	"arq/internal/obsv"
)

// TestTwoServentsSettleTheirOwnAccounting runs two servents and their
// transports in one process and searches both ways. Each servent counts
// its own traffic only; after Close, each transport settles the frames
// its servent handed it by itself (sent == msgs_out + queue_sheds +
// close_discards + write_errors); and obsv.Default's view is the live
// sets plus the retired ones, with no counter moving across either Close.
func TestTwoServentsSettleTheirOwnAccounting(t *testing.T) {
	base := obsv.Default.Snapshot()
	a, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.Share("topic-601 keywords on-a.dat", 1)
	b.Share("topic-602 keywords on-b.dat", 1)
	if err := a.ConnectTo(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return a.NumConns() == 1 && b.NumConns() == 1 }, "the two servents to link up")

	const fromA, fromB = 3, 5
	for i := 0; i < fromA; i++ {
		if _, err := a.Search("topic-602 keywords", 2, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fromB; i++ {
		if _, err := b.Search("topic-601 keywords", 2, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Every search is one query out and one hit back: each servent sent
	// and received fromA+fromB messages, and routed home its own hits.
	for _, c := range []struct {
		name   string
		s      *Servent
		routed int64
	}{{"a", a, fromA}, {"b", b, fromB}} {
		m, tm := &c.s.m, c.s.NetInstruments()
		got := [...]int64{m.MsgsIn.Value(), m.MsgsOut.Value(), m.HitsRouted.Value(), m.HitsDropped.Value(), m.DupDrops.Value(), tm.MsgsIn.Value()}
		if want := [...]int64{fromA + fromB, fromA + fromB, c.routed, 0, 0, fromA + fromB}; got != want {
			t.Errorf("servent %s: msgs in/out, hits routed/dropped, dups, transport msgs in = %v, want %v", c.name, got, want)
		}
	}

	// A frame is counted as sent once its flush returns, which can be
	// after the peer has read it: wait for both transports to settle
	// before reading the view.
	settled := func(s *Servent) int64 {
		tm := s.NetInstruments()
		return tm.MsgsOut.Value() + tm.Sheds.Value() + tm.Discards.Value() + tm.WriteErrs.Value()
	}
	waitUntil(t, func() bool { return settled(a) == a.m.MsgsOut.Value() && settled(b) == b.m.MsgsOut.Value() },
		"both transports to settle their frames")

	// The sets as one view of their own, to hold obsv.Default's against.
	var own obsv.Registry
	for _, s := range []*Servent{a, b} {
		own.Register(&s.m)
		own.Register(s.NetInstruments())
	}
	view := func(when string) map[string]int64 {
		t.Helper()
		got := obsv.Default.Snapshot().Counters
		for name, v := range own.Snapshot().Counters {
			if got[name] != base.Counters[name]+v {
				t.Errorf("%s: %s = %d in the view, want %d before plus %d of the two servents", when, name, got[name], base.Counters[name], v)
			}
		}
		return got
	}
	live := view("both live")
	for _, s := range []*Servent{a, b} {
		s.Close()
		after := view("after a Close")
		for name, v := range live {
			if after[name] != v {
				t.Errorf("%s moved across a Close: %d -> %d", name, v, after[name])
			}
		}
	}
	if g, g0 := obsv.Default.Snapshot().Gauges["transport.conns_open"], base.Gauges["transport.conns_open"]; g != g0 {
		t.Errorf("transport.conns_open = %d after both closed, want %d", g, g0)
	}

	for name, s := range map[string]*Servent{"a": a, "b": b} {
		if sent, got := s.m.MsgsOut.Value(), settled(s); got != sent {
			tm := s.NetInstruments()
			t.Errorf("servent %s: sent %d frames, its transport settled %d after Close (out %d sheds %d discards %d write errors %d)",
				name, sent, got, tm.MsgsOut.Value(), tm.Sheds.Value(), tm.Discards.Value(), tm.WriteErrs.Value())
		}
	}
}
