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
