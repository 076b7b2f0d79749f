package adapt

import (
	"testing"

	"arq/internal/overlay"
)

// tableConsequents builds a ConsequentFunc from a static map.
func tableConsequents(m map[[2]int][]int32) ConsequentFunc {
	return func(v, antecedent int) []int32 {
		return m[[2]int{v, antecedent}]
	}
}

func line(n int) *overlay.Graph {
	g := overlay.NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

func TestRewireAddsShortcut(t *testing.T) {
	// 0-1-2: node 1 forwards queries from 0 to 2, so 0 gains edge to 2.
	g := line(3)
	added := Rewire(g, tableConsequents(map[[2]int][]int32{
		{1, 0}: {2},
	}), Options{})
	if len(added) != 1 || added[0] != [2]int{0, 2} {
		t.Fatalf("added = %v", added)
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("shortcut missing")
	}
}

func TestRewireSkipsExistingAndSelf(t *testing.T) {
	g := line(3)
	g.AddEdge(0, 2)
	added := Rewire(g, tableConsequents(map[[2]int][]int32{
		{1, 0}: {2, 0}, // existing edge, then self
	}), Options{})
	if len(added) != 0 {
		t.Fatalf("added = %v", added)
	}
}

func TestRewireRespectsPerNodeCap(t *testing.T) {
	// Star around node 0; every leaf's consequent for antecedent 0 points
	// at another leaf, so node 0's additions are capped.
	g := overlay.NewGraph(6)
	for i := 1; i < 6; i++ {
		g.AddEdge(0, i)
	}
	m := map[[2]int][]int32{}
	for v := 1; v < 6; v++ {
		m[[2]int{v, 0}] = []int32{int32(v%5 + 1)}
	}
	added := Rewire(g, tableConsequents(m), Options{MaxNewPerNode: 1})
	count0 := 0
	for _, e := range added {
		if e[0] == 0 || e[1] == 0 {
			count0++
		}
	}
	if count0 > 1 {
		t.Fatalf("node 0 gained %d edges with cap 1", count0)
	}
}

func TestRewireRespectsMaxDegree(t *testing.T) {
	g := line(4) // degrees: 1,2,2,1
	added := Rewire(g, tableConsequents(map[[2]int][]int32{
		{1, 0}: {2},
	}), Options{MaxDegree: 2})
	// Node 2 already has degree 2: refused.
	if len(added) != 0 {
		t.Fatalf("added = %v", added)
	}
}

func TestRewireUsesFirstUsableConsequent(t *testing.T) {
	g := line(4)
	added := Rewire(g, tableConsequents(map[[2]int][]int32{
		{1, 0}: {0, 2, 3}, // self first (skipped), then 2
	}), Options{MaxNewPerNode: 5})
	if len(added) != 1 || added[0] != [2]int{0, 2} {
		t.Fatalf("added = %v", added)
	}
	if g.HasEdge(0, 3) {
		t.Fatal("should stop after first usable consequent per neighbor")
	}
}
