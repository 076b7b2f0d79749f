package cluster

import (
	"os"
	"testing"
	"time"

	"arq/internal/scenario"
)

// TestMain lets the test binary serve as the cluster's child binary:
// when cluster.Run re-execs it with childEnv set, ChildMain runs the
// node and exits before any test executes.
func TestMain(m *testing.M) {
	ChildMain()
	os.Exit(m.Run())
}

func TestContentPlan(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		u := Universe(n)
		if u != 4*n {
			t.Fatalf("universe(%d) = %d", n, u)
		}
		// Every topic has two owners and every node a non-empty library.
		perNode := make([]int, n)
		for topic := 0; topic < u; topic++ {
			a, b := scenario.ClusterPlan{N: n}.Owners(topic)
			if a < 0 || a >= n || b < 0 || b >= n {
				t.Fatalf("owners(%d, %d) = %d, %d out of range", topic, n, a, b)
			}
			perNode[a]++
			if b != a {
				perNode[b]++
			}
		}
		for id, c := range perNode {
			if c == 0 {
				t.Fatalf("n=%d: node %d owns nothing", n, id)
			}
			if got := len(Library(id, n)); got != c {
				t.Fatalf("n=%d node %d: library %d files, owns %d topics", n, id, got, c)
			}
		}
		// Ring+chord neighbours: never self, no duplicates, 1-2 peers.
		for id := 0; id < n; id++ {
			nb := scenario.ClusterPlan{N: n}.Neighbours(id)
			if len(nb) == 0 || len(nb) > 2 {
				t.Fatalf("n=%d node %d: %d neighbours", n, id, len(nb))
			}
			seen := map[int]bool{}
			for _, p := range nb {
				if p == id || p < 0 || p >= n || seen[p] {
					t.Fatalf("n=%d node %d: bad neighbour set %v", n, id, nb)
				}
				seen[p] = true
			}
		}
	}
}

// The full N-process run: real sockets, warm + measured phases, every
// query answered, no leaked goroutines in any child.
func TestClusterRunThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	res, err := Run(Config{N: 3, Warm: 10, Queries: 10, Seed: 7, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 3 || len(res.PerNode) != 3 {
		t.Fatalf("procs = %d, per-node = %d", res.Procs, len(res.PerNode))
	}
	if res.Queries != 30 {
		t.Fatalf("queries = %d, want 30", res.Queries)
	}
	if res.SuccessRate < 0.9 {
		t.Fatalf("success rate %.3f on a loopback cluster with no faults", res.SuccessRate)
	}
	if res.LeakedGoroutines > 0 {
		t.Fatalf("%d goroutines leaked across children", res.LeakedGoroutines)
	}
	if res.MsgsIn == 0 || res.BytesIn == 0 || res.Dials == 0 {
		t.Fatalf("transport counters empty: %+v", res)
	}
	if res.P99NS <= 0 || res.P50NS > res.P99NS {
		t.Fatalf("latency quantiles inconsistent: p50 %d, p99 %d", res.P99NS, res.P99NS)
	}
}

// The kill/restart drill: node 1 is killed mid-measurement and re-execed
// on the same id/addr/checkpoint dir. Peer supervisors must redial it,
// the restarted incarnation must warm-start from its checkpoint, and the
// run must still clear the no-faults success bar with zero manual
// intervention.
func TestClusterKillRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	res, err := Run(Config{
		N: 3, Warm: 30, Queries: 60, Seed: 7, Timeout: 90 * time.Second,
		Restart: true, RestartNode: 1, Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate < 0.9 {
		t.Fatalf("success rate %.3f after kill+restart, want >= 0.9", res.SuccessRate)
	}
	if res.Reconnects == 0 {
		t.Fatal("no supervised reconnects recorded across the cluster")
	}
	if res.RestoredRules == 0 {
		t.Fatal("restarted node warm-started zero rules")
	}
	if res.LeakedGoroutines > 0 {
		t.Fatalf("%d goroutines leaked across children", res.LeakedGoroutines)
	}
}
