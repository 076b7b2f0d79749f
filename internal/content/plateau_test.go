package content

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

// TestReassignPlateau is the plateau law on the content model: no state
// grows without bound under sustained churn. A 5 000-node model takes
// 10·N Reassigns of random nodes, and its hosted arena's held bytes are
// read every N/10 steps. From step N on they stay within 3× a fresh
// packed build of the current placement (4 B a hosted category plus the
// 8 B run of every node), and over the last quarter within the reading
// at step N plus the compaction sawtooth: between rebuilds the value
// array grows by append from live entries to 2·live, and append's last
// 1.25× step (with its 8 KB size-class rounding, at both ends of the
// swing) can leave its capacity at 2.5·live, so two readings may differ
// by 1.5·live entries and 16 KB.
func TestReassignPlateau(t *testing.T) {
	const n = 5000
	for _, cfg := range []Config{DefaultConfig(), communitiesConfig()} {
		m := BuildClustered(stats.NewRNG(101), ring(n), cfg)
		rng := stats.NewRNG(7)
		atN := 0
		for step := 1; step <= 10*n; step++ {
			m.Reassign(rng, rng.Intn(n))
			if step < n || step%(n/10) != 0 {
				continue
			}
			held, live := arenaBytes(&m.hosted), m.hosted.Live()
			if fresh := 4*live + 8*n; held > 3*fresh {
				t.Fatalf("after %d reassigns the model holds %d B, %.2f× the %d B of a fresh build", step, held, float64(held)/float64(fresh), fresh)
			}
			if step == n {
				atN = held
			}
			if slack := 4*live*3/2 + 16<<10; step > 10*n*3/4 && held > atN+slack {
				t.Fatalf("after %d reassigns the model holds %d B, more than the %d B at %d reassigns and the %d B sawtooth", step, held, atN, n, slack)
			}
		}
	}
}
