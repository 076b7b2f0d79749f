package peer

import "testing"

func TestSummarize(t *testing.T) {
	all := []Stats{
		{Found: true, FirstHitHops: 2, QueryMessages: 10, HitMessages: 2, NodesReached: 5},
		{Found: false, QueryMessages: 30, Duplicates: 4, NodesReached: 20},
	}
	a := Summarize(all)
	if a.Queries != 2 || a.SuccessRate != 0.5 {
		t.Fatalf("agg = %+v", a)
	}
	if a.AvgMessages != 21 || a.AvgQueryMsgs != 20 || a.AvgDuplicates != 2 {
		t.Fatalf("agg = %+v", a)
	}
	if a.AvgHitHops != 2 {
		t.Fatalf("hit hops = %v", a.AvgHitHops)
	}
	if z := Summarize(nil); z.Queries != 0 {
		t.Fatalf("empty agg = %+v", z)
	}
}
