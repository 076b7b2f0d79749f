package main

// Real-socket modes: -netcluster runs an N-process localhost cluster
// (internal/cluster) and gates on query success, and -listen runs this
// process as one node of such a cluster by hand (README "Running a local
// cluster").

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"arq/internal/cluster"
	"arq/internal/scenario"
	"arq/internal/transport"
	"arq/internal/vantage"
)

// runNetCluster drives cluster.Run with the shared workload flags and
// prints the transport-level summary the net-smoke CI job asserts on.
func (o *options) runNetCluster(stdout, stderr io.Writer) int {
	res, err := cluster.Run(cluster.Config{
		N:             o.netN,
		Warm:          o.warm,
		Queries:       o.queries,
		TTL:           o.ttl,
		Seed:          int64(o.seed),
		Dir:           o.logDir,
		FreeRiderFrac: o.freeRiders,
		Restart:       o.restart >= 0,
		RestartNode:   o.restart,
		Checkpoint:    o.checkpoint,
	})
	if err != nil {
		fmt.Fprintln(stderr, "arqnet:", err)
		return 1
	}
	fmt.Fprintf(stdout, "netcluster: %d processes, %d queries (%d warm per node)\n", res.Procs, res.Queries, o.warm)
	fmt.Fprintf(stdout, "  success      %d/%d = %.3f\n", res.Hits, res.Queries, res.SuccessRate)
	fmt.Fprintf(stdout, "  latency      p50 %.2fms  p99 %.2fms\n", float64(res.P50NS)/1e6, float64(res.P99NS)/1e6)
	fmt.Fprintf(stdout, "  throughput   %.0f msgs/s in (measured phase %.2fs)\n", res.MsgsPerSec, float64(res.DurationNS)/1e9)
	fmt.Fprintf(stdout, "  transport    in %d out %d msgs, %d/%d bytes, %d dials, %d accept errors, %d sheds\n",
		res.MsgsIn, res.MsgsOut, res.BytesIn, res.BytesOut, res.Dials, res.AcceptErrs, res.QueueSheds)
	if o.restart >= 0 {
		fmt.Fprintf(stdout, "  recovery     node %d killed and re-execed: %d supervised reconnects, %d rules warm-restored\n",
			o.restart, res.Reconnects, res.RestoredRules)
	}
	if res.LeakedGoroutines > 0 {
		fmt.Fprintf(stderr, "arqnet: %d goroutines leaked across the cluster\n", res.LeakedGoroutines)
		return 1
	}
	if o.minSuccess > 0 && res.SuccessRate < o.minSuccess {
		fmt.Fprintf(stderr, "arqnet: success rate %.3f below -minsuccess %.3f\n", res.SuccessRate, o.minSuccess)
		return 1
	}
	return 0
}

// runListen runs this process as one hand-launched cluster node: listen,
// share the node's deterministic library, dial any bootstrap peers, then
// drive -queries measured queries if it was given them, or serve until
// killed.
func (o *options) runListen(search bool, stdout, stderr io.Writer) int {
	s, err := vantage.Listen(o.listen, vantage.Options{
		Rules: true,
		Net:   &transport.Options{NodeID: o.nodeID},
	})
	if err != nil {
		fmt.Fprintln(stderr, "arqnet:", err)
		return 1
	}
	defer s.Close()
	plan := scenario.ClusterPlan{N: o.nodes}
	for _, f := range plan.Library(o.nodeID) {
		s.Share(f.Name, f.Size)
	}
	fmt.Fprintf(stdout, "node %d listening on %s (%d-topic universe for %d nodes)\n",
		o.nodeID, s.Addr(), plan.Universe(), o.nodes)
	for _, addr := range strings.Split(o.bootstrap, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := s.ConnectTo(addr); err != nil {
			fmt.Fprintf(stderr, "arqnet: dial %s: %v\n", addr, err)
			return 1
		}
		fmt.Fprintf(stdout, "node %d connected to %s\n", o.nodeID, addr)
	}
	if !search {
		fmt.Fprintln(stdout, "serving; interrupt to stop")
		select {}
	}
	r := rand.New(rand.NewSource(int64(o.seed) + int64(o.nodeID)*7919))
	hits := 0
	for i := 0; i < o.queries; i++ {
		t := plan.SearchString(r.Intn(plan.Universe()))
		t0 := time.Now()
		if hit, err := s.Search(t, byte(o.ttl), 2*time.Second); err == nil {
			hits++
			fmt.Fprintf(stdout, "hit  %-24s %6.2fms  %d files\n", t, float64(time.Since(t0).Microseconds())/1000, len(hit.Results))
		} else {
			fmt.Fprintf(stdout, "miss %-24s\n", t)
		}
	}
	fmt.Fprintf(stdout, "%d/%d hits\n", hits, o.queries)
	return 0
}
