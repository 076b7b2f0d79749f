package main

import "testing"

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
