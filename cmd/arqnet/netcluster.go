package main

// Real-socket modes: -netcluster launches the servent as an N-process
// localhost cluster (internal/cluster) and gates on query success —
// the CI net-smoke entry point — while -listen/-bootstrap runs this
// process as ONE node of such a cluster by hand, for poking at the
// protocol with real sockets from several terminals (see README
// "Running a local cluster").

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"arq/internal/cluster"
	"arq/internal/scenario"
	"arq/internal/transport"
	"arq/internal/vantage"
)

var (
	netN       = flag.Int("netcluster", 0, "launch an N-process localhost servent cluster and report throughput/latency")
	minSuccess = flag.Float64("minsuccess", 0, "fail (exit 1) when cluster query success rate falls below this")
	logDir     = flag.String("logdir", "", "keep cluster rendezvous files and per-node logs under this directory")
	listenAddr = flag.String("listen", "", "run one servent node on this address (e.g. 127.0.0.1:7001)")
	bootstrap  = flag.String("bootstrap", "", "comma-separated peer addresses to dial in -listen mode")
	nodeID     = flag.Int("nodeid", 0, "this node's id in -listen mode (drives its deterministic library)")
	freeRiders = flag.Float64("freeriders", 0, "netcluster: fraction of nodes sharing nothing (scenario free-rider marking)")
	restartID  = flag.Int("restart", -1, "netcluster: kill this node mid-workload and re-exec it on the same id/addr (the self-healing drill)")
	checkpoint = flag.Bool("checkpoint", false, "netcluster: persist rule snapshots per node so a restarted node warm-starts")
)

// runNetCluster drives cluster.Run with the shared workload flags and
// prints the transport-level summary the net-smoke CI job asserts on.
func runNetCluster() {
	res, err := cluster.Run(cluster.Config{
		N:             *netN,
		Warm:          *warm,
		Queries:       *nq,
		TTL:           *ttl,
		Seed:          int64(*seed),
		Dir:           *logDir,
		FreeRiderFrac: *freeRiders,
		Restart:       *restartID >= 0,
		RestartNode:   *restartID,
		Checkpoint:    *checkpoint,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqnet:", err)
		os.Exit(1)
	}
	fmt.Printf("netcluster: %d processes, %d queries (%d warm per node)\n", res.Procs, res.Queries, *warm)
	fmt.Printf("  success      %d/%d = %.3f\n", res.Hits, res.Queries, res.SuccessRate)
	fmt.Printf("  latency      p50 %.2fms  p99 %.2fms\n", float64(res.P50NS)/1e6, float64(res.P99NS)/1e6)
	fmt.Printf("  throughput   %.0f msgs/s in (measured phase %.2fs)\n", res.MsgsPerSec, float64(res.DurationNS)/1e9)
	fmt.Printf("  transport    in %d out %d msgs, %d/%d bytes, %d dials, %d accept errors, %d sheds\n",
		res.MsgsIn, res.MsgsOut, res.BytesIn, res.BytesOut, res.Dials, res.AcceptErrs, res.QueueSheds)
	if *restartID >= 0 {
		fmt.Printf("  recovery     node %d killed and re-execed: %d supervised reconnects, %d rules warm-restored\n",
			*restartID, res.Reconnects, res.RestoredRules)
	}
	if res.LeakedGoroutines > 0 {
		fmt.Fprintf(os.Stderr, "arqnet: %d goroutines leaked across the cluster\n", res.LeakedGoroutines)
		os.Exit(1)
	}
	if *minSuccess > 0 && res.SuccessRate < *minSuccess {
		fmt.Fprintf(os.Stderr, "arqnet: success rate %.3f below -minsuccess %.3f\n", res.SuccessRate, *minSuccess)
		os.Exit(1)
	}
}

// runListen runs this process as one hand-launched cluster node: listen,
// share the node's deterministic library, dial any bootstrap peers, then
// either drive -queries measured queries or serve until killed.
func runListen() {
	n := *nodes
	if n < 2 {
		n = 2
	}
	s, err := vantage.Listen(*listenAddr, vantage.Options{
		Rules: true,
		Net:   &transport.Options{NodeID: *nodeID},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqnet:", err)
		os.Exit(1)
	}
	defer s.Close()
	plan := scenario.ClusterPlan{N: n}
	for _, f := range plan.Library(*nodeID) {
		s.Share(f.Name, f.Size)
	}
	fmt.Printf("node %d listening on %s (%d-topic universe for %d nodes)\n",
		*nodeID, s.Addr(), plan.Universe(), n)
	for _, addr := range strings.Split(*bootstrap, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := s.ConnectTo(addr); err != nil {
			fmt.Fprintf(os.Stderr, "arqnet: dial %s: %v\n", addr, err)
			os.Exit(1)
		}
		fmt.Printf("node %d connected to %s\n", *nodeID, addr)
	}
	if *nq <= 0 || *bootstrap == "" {
		fmt.Println("serving; interrupt to stop")
		select {}
	}
	r := rand.New(rand.NewSource(int64(*seed) + int64(*nodeID)*7919))
	hits := 0
	for i := 0; i < *nq; i++ {
		t := plan.SearchString(r.Intn(plan.Universe()))
		t0 := time.Now()
		if hit, err := s.Search(t, byte(*ttl), 2*time.Second); err == nil {
			hits++
			fmt.Printf("hit  %-24s %6.2fms  %d files\n", t, float64(time.Since(t0).Microseconds())/1000, len(hit.Results))
		} else {
			fmt.Printf("miss %-24s\n", t)
		}
	}
	fmt.Printf("%d/%d hits\n", hits, *nq)
}
