package main

import "testing"

// A pair or query count below 1 is refused before anything is generated:
// -queries -5 used to panic sizing the capture and -pairs -3 to report
// "wrote -3 pairs" with exit 0.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		pairs, queries int
		ok             bool
	}{
		{100_000, 500_000, true},
		{1, 1, true},
		{0, 500_000, false},
		{-3, 500_000, false},
		{100_000, 0, false},
		{100_000, -5, false},
	} {
		if err := checkCounts(c.pairs, c.queries); (err == nil) != c.ok {
			t.Errorf("checkCounts(pairs %d, queries %d) = %v, want ok %v", c.pairs, c.queries, err, c.ok)
		}
	}
}
