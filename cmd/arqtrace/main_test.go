package main

import "testing"

// A pair or query count below 1, and -stats without -raw, are refused
// before anything is generated: -queries -5 used to panic sizing the
// capture, -pairs -3 to report "wrote -3 pairs" with exit 0, and -pairs 3
// -stats -out x.jsonl to print three pair lines and create no x.jsonl.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		pairs, queries int
		raw, stats     bool
		ok             bool
	}{
		{100_000, 500_000, false, false, true},
		{1, 1, false, false, true},
		{100_000, 500_000, true, true, true},
		{100_000, 500_000, true, false, true},
		{0, 500_000, false, false, false},
		{-3, 500_000, false, false, false},
		{100_000, 0, false, false, false},
		{100_000, -5, false, false, false},
		{3, 500_000, false, true, false},
	} {
		if err := checkCounts(c.pairs, c.queries, c.raw, c.stats); (err == nil) != c.ok {
			t.Errorf("checkCounts(pairs %d, queries %d, raw %v, stats %v) = %v, want ok %v", c.pairs, c.queries, c.raw, c.stats, err, c.ok)
		}
	}
}
