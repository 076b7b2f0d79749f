package overlay

import (
	"reflect"
	"testing"

	"arq/internal/stats"
	"arq/internal/stream"
)

// arenaBytes is what an arena holds: its value array's capacity and its
// run table. The arena exports no size, so the test reads it off the two
// slices.
func arenaBytes[V any](a *stream.Arena[V]) int {
	v := reflect.ValueOf(a).Elem()
	vals, runs := v.FieldByName("vals"), v.FieldByName("runs")
	return vals.Cap()*int(vals.Type().Elem().Size()) + runs.Cap()*int(runs.Type().Elem().Size())
}

// TestChurnPlateau is the plateau law on the graph: no state grows
// without bound under sustained churn. A 5 000-node GnutellaLike overlay
// takes 10·N node replacements, each scenario.Runner.churnNode's edit
// sequence (strip the node's edges, then rewire it to 4 random peers),
// and the arena's held bytes are read every N/10 steps. From step N on
// they stay within 3× a fresh packed build of the current rows (4 B a
// live entry plus the 8 B run of every node), and over the last quarter
// within the reading at step N plus the compaction sawtooth: between
// rebuilds the value array grows by append from live entries to 2·live,
// and append's last 1.25× step (with its 8 KB size-class rounding, at
// both ends of the swing) can leave its capacity at 2.5·live, so two
// readings may differ by 1.5·live entries and 16 KB.
func TestChurnPlateau(t *testing.T) {
	const n, deg = 5000, 4
	g := GnutellaLike(stats.NewRNG(101), n)
	rng := stats.NewRNG(7)
	atN := 0
	for step := 1; step <= 10*n; step++ {
		u := rng.Intn(n)
		for _, v := range append([]int32(nil), g.Neighbors(u)...) {
			g.RemoveEdge(u, int(v))
		}
		for tries := 0; g.Degree(u) < deg && tries < 10*deg; tries++ {
			if v := rng.Intn(n); v != u {
				g.AddEdge(u, v)
			}
		}
		if step < n || step%(n/10) != 0 {
			continue
		}
		held, live := arenaBytes(&g.adj), g.adj.Live()
		if fresh := 4*live + 8*n; held > 3*fresh {
			t.Fatalf("after %d churns the graph holds %d B, %.2f× the %d B of a fresh build", step, held, float64(held)/float64(fresh), fresh)
		}
		if step == n {
			atN = held
		}
		if slack := 4*live*3/2 + 16<<10; step > 10*n*3/4 && held > atN+slack {
			t.Fatalf("after %d churns the graph holds %d B, more than the %d B at %d churns and the %d B sawtooth", step, held, atN, n, slack)
		}
	}
}
