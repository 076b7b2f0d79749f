package main

import (
	"testing"

	"arq/internal/scenario"
)

// A block, trial count or report stride below 1 is refused before any
// run starts: -every 0 used to print block 1 forever, -every -1 to panic
// and -block 0 to run empty blocks.
func TestCheckSizes(t *testing.T) {
	for _, c := range []struct {
		block, trials, every int
		ok                   bool
	}{
		{10000, 365, 10, true},
		{1, 1, 1, true},
		{2000, 3, 0, false},
		{2000, 3, -1, false},
		{0, 3, 1, false},
		{-5, 3, 1, false},
		{2000, 0, 1, false},
		{2000, -2, 1, false},
	} {
		if err := checkSizes(c.block, c.trials, c.every); (err == nil) != c.ok {
			t.Errorf("checkSizes(block %d, trials %d, every %d) = %v, want ok %v", c.block, c.trials, c.every, err, c.ok)
		}
	}
}

// A -net overlay smaller than a scenario builds is refused before any run
// starts (-nodes 2 used to panic in the generator); the policy simulator
// has no overlay and ignores -nodes.
func TestCheckNetNodes(t *testing.T) {
	for _, c := range []struct {
		net bool
		n   int
		ok  bool
	}{
		{true, 2000, true},
		{true, minNetNodes, true},
		{true, 2, false},
		{true, 0, false},
		{true, -3, false},
		{false, 0, true},
	} {
		if err := checkNetNodes(c.net, c.n); (err == nil) != c.ok {
			t.Errorf("checkNetNodes(net %v, nodes %d) = %v, want ok %v", c.net, c.n, err, c.ok)
		}
	}
	sc, err := scenario.ByName("baseline", minNetNodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := sc.Build(); g.N() != minNetNodes {
		t.Fatalf("the baseline scenario at %d nodes built %d", minNetNodes, g.N())
	}
}

// A trace that fills at most one block is refused: the first block is
// every policy's warm-up, and a 6 131-pair capture at the default -block
// 10000 used to print trials=0 and avg=0.000 with exit 0.
func TestCheckTraceSize(t *testing.T) {
	for _, c := range []struct {
		pairs, block int
		ok           bool
	}{
		{6131, 10000, false},
		{10000, 10000, false},
		{0, 500, false},
		{10001, 10000, true},
		{20000, 500, true},
	} {
		if err := checkTraceSize(c.pairs, c.block); (err == nil) != c.ok {
			t.Errorf("checkTraceSize(pairs %d, block %d) = %v, want ok %v", c.pairs, c.block, err, c.ok)
		}
	}
}
