package main

import (
	"testing"

	"arq/internal/stats"
)

// An overlay smaller than its topology builds is refused before any run
// starts: -nodes 2 used to panic in the gnutella generator, -nodes 4 in
// the small-world one, and -chaos -nodes 0 ran 300 nodes instead.
func TestCheckNodes(t *testing.T) {
	for topology, least := range minNodes {
		if err := checkNodes(topology, least); err != nil {
			t.Errorf("checkNodes(%s, %d) = %v, want ok", topology, least, err)
		}
		if err := checkNodes(topology, least-1); err == nil {
			t.Errorf("checkNodes(%s, %d) accepted an overlay below the least", topology, least-1)
		}
		if g := buildOverlay(topology, stats.NewRNG(1), least); g.N() != least {
			t.Errorf("buildOverlay(%s, %d) built %d nodes", topology, least, g.N())
		}
	}
	for _, c := range []struct {
		topology string
		n        int
	}{{"gnutella", 2}, {"gnutella", 0}, {"smallworld", 4}, {"random", 0}, {"random", -1}, {"ring", 100}} {
		if err := checkNodes(c.topology, c.n); err == nil {
			t.Errorf("checkNodes(%s, %d) = nil, want an error", c.topology, c.n)
		}
	}
}

// A drill setting below 1 is refused under -chaos: -warm 0, -queries 0
// and -ttl 0 used to run 3 000, 500 and 6 instead. So is a -topology or
// -router set on the command line, which the drill used to ignore.
func TestCheckChaos(t *testing.T) {
	if err := checkChaos(1, 1, 1, nil); err != nil {
		t.Errorf("checkChaos(1, 1, 1) = %v, want ok", err)
	}
	if err := checkChaos(1500, 300, 6, []string{"chaos", "nodes", "seed", "warm", "queries", "ttl"}); err != nil {
		t.Errorf("checkChaos with every drill flag set = %v, want ok", err)
	}
	for _, c := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 300, 6}, {1500, -5, 6}} {
		if err := checkChaos(c[0], c[1], c[2], nil); err == nil {
			t.Errorf("checkChaos%v = nil, want an error", c)
		}
	}
	for _, set := range [][]string{{"chaos", "topology"}, {"chaos", "router"}, {"router", "chaos", "nodes"}} {
		if err := checkChaos(1500, 300, 6, set); err == nil {
			t.Errorf("checkChaos with %v set = nil, want an error", set)
		}
	}
}
