// Command arqnet runs the message-level overlay simulation on the flat
// engine (internal/peer/flat), comparing one strategy of the catalogue
// (scenario.Strategies) against flooding on the same topology and
// workload. A flag the mode does not read, or a count below its least
// value (see flags), exits 2 with one line.
//
//	arqnet -router assoc -nodes 2000 -queries 5000
//	arqnet -router kwalk-16
//	arqnet -router flood -nodes 1000000 -queries 200
//	arqnet -chaos -nodes 200 -warm 2000 -queries 400
package main

import (
	"fmt"
	"io"
	"os"

	"arq/internal/chaos"
	"arq/internal/cli"
	"arq/internal/cluster"
	"arq/internal/content"
	"arq/internal/metrics"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/scenario"
	"arq/internal/stats"
)

type options struct {
	router, topology, logDir, listen, bootstrap string
	nodes, queries, warm, ttl                   int
	netN, nodeID, restart                       int
	seed                                        uint64
	minSuccess, freeRiders                      float64
	chaos, checkpoint                           bool
}

// flags is the flag table; its modes are compare (with the strategy's
// name), chaos, netcluster and listen (with search if it has -queries).
func (o *options) flags() []cli.Flag {
	return []cli.Flag{
		cli.Var(&o.router, "router", "assoc", "a strategy of the catalogue: flood | expanding-ring | kwalk-16 | routing-index | interest-shortcuts | assoc | assoc-two-phase").In("compare"),
		cli.Var(&o.topology, "topology", "gnutella", "gnutella | random | smallworld").In("compare"),
		cli.Var(&o.nodes, "nodes", 2000, "overlay size (at least 3 on gnutella, 5 on smallworld, 1 on random; the plan of a -listen node at least 2)").In("compare", "chaos", "listen"),
		cli.Var(&o.queries, "queries", 5000, "measured queries (a -listen node with -bootstrap searches only when given them)").AtLeast(1).In("compare", "chaos", "netcluster", "search"),
		cli.Var(&o.warm, "warm", 20000, "warm-up queries for learning strategies").AtLeast(1).In("chaos", "netcluster", "interest-shortcuts", "assoc", "assoc-two-phase"),
		cli.Var(&o.ttl, "ttl", 7, "query TTL").AtLeast(1).In("compare", "chaos", "netcluster", "search"),
		cli.Var(&o.seed, "seed", 42, "seed for topology, content, and workload").In("compare", "chaos", "netcluster", "search"),
		cli.Var(&o.chaos, "chaos", false, "run the fault-injection chaos soak instead of a strategy comparison").In("chaos"),
		cli.Var(&o.netN, "netcluster", 0, "launch an N-process localhost servent cluster and report throughput/latency").AtLeast(2).In("netcluster"),
		cli.Var(&o.minSuccess, "minsuccess", 0, "fail (exit 1) when cluster query success rate falls below this").In("netcluster"),
		cli.Var(&o.logDir, "logdir", "", "keep cluster rendezvous files and per-node logs under this directory").In("netcluster"),
		cli.Var(&o.listen, "listen", "", "run one servent node on this address (e.g. 127.0.0.1:7001)").In("listen"),
		cli.Var(&o.bootstrap, "bootstrap", "", "comma-separated peer addresses to dial in -listen mode").In("listen"),
		cli.Var(&o.nodeID, "nodeid", 0, "this node's id in -listen mode (drives its deterministic library)").AtLeast(0).In("listen"),
		cli.Var(&o.freeRiders, "freeriders", 0, "netcluster: fraction of nodes sharing nothing (scenario free-rider marking)").In("netcluster"),
		cli.Var(&o.restart, "restart", -1, "netcluster: kill this node mid-workload and re-exec it on the same id/addr (the self-healing drill)").AtLeast(0).In("netcluster"),
		cli.Var(&o.checkpoint, "checkpoint", false, "netcluster: persist rule snapshots per node so a restarted node warm-starts").In("netcluster"),
	}
}

// topologies builds each overlay -topology names, beside the smallest it
// builds: the gnutella core attaches every node to 2 earlier ones, and
// the small-world ring links every node to its 4 nearest. The chaos drill
// runs on gnutella.
var topologies = map[string]struct {
	least int
	build func(*stats.RNG, int) *overlay.Graph
}{
	"gnutella":   {3, overlay.GnutellaLike},
	"random":     {1, func(rng *stats.RNG, n int) *overlay.Graph { return overlay.Random(rng, n, 4) }},
	"smallworld": {5, func(rng *stats.RNG, n int) *overlay.Graph { return overlay.WattsStrogatz(rng, n, 4, 0.1) }},
}

func main() {
	// A process launched by cluster.Run is a cluster node, not a CLI:
	// ChildMain runs the node and exits before any flag parsing.
	cluster.ChildMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	c, modes, err := o.parse(args, stderr)
	if err != nil {
		return c.Refuse(err)
	}
	switch modes[0] {
	case "netcluster":
		return o.runNetCluster(stdout, stderr)
	case "listen":
		return o.runListen(len(modes) > 1, stdout, stderr)
	case "chaos":
		// The soak's output carries no timings and no map-ordered
		// iteration: CI runs it twice and diffs (the chaos-smoke job).
		cfg := chaos.Config{Seed: o.seed, Nodes: o.nodes, Warm: o.warm, Queries: o.queries, TTL: o.ttl}
		if err := chaos.Report(stdout, cfg); err != nil {
			fmt.Fprintln(stderr, "arqnet:", err)
			return 1
		}
		return 0
	}
	return o.compare(c, stdout)
}

// parse reads args into o and returns the modes they select; it refuses
// what Check refuses and an overlay smaller than its topology builds. It
// starts nothing.
func (o *options) parse(args []string, stderr io.Writer) (*cli.Command, []string, error) {
	c := &cli.Command{Name: "arqnet", Stderr: stderr, Flags: o.flags()}
	if err := c.Parse(args); err != nil {
		return c, nil, err
	}
	modes := []string{"compare", o.router}
	switch {
	case o.netN > 0:
		modes = []string{"netcluster"}
	case o.listen != "" && o.bootstrap != "" && c.Set("queries"):
		modes = []string{"listen", "search"}
	case o.listen != "":
		modes = []string{"listen"}
	case o.chaos:
		modes = []string{"chaos"}
	}
	if err := c.Check(modes...); err != nil {
		return c, nil, err
	}
	topology, ok := topologies[o.topology]
	least := topology.least
	where := "on the " + o.topology + " topology"
	if modes[0] == "listen" {
		least, ok, where = 2, true, "for a -listen node's cluster plan"
	}
	switch {
	case modes[0] == "netcluster":
	case !ok:
		return c, nil, fmt.Errorf("unknown topology %q (valid: gnutella, random, smallworld)", o.topology)
	case o.nodes < least:
		return c, nil, fmt.Errorf("-nodes must be at least %d %s, got %d", least, where, o.nodes)
	}
	return c, modes, nil
}

// compare measures -router against flooding on one overlay and workload.
func (o *options) compare(c *cli.Command, stdout io.Writer) int {
	rng := stats.NewRNG(o.seed)
	g := topologies[o.topology].build(rng, o.nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	strats := scenario.Strategies(g, model, peer.QuerySpec{TTL: o.ttl}, o.seed)
	floodSt, _ := scenario.StrategyByName(strats, "flood")
	st, err := scenario.StrategyByName(strats, o.router)
	if err != nil {
		return c.Refuse(err)
	}
	// measure builds s on a fresh flat engine, warms it if it learns,
	// and runs the measured workload: the same queries for every strategy.
	measure := func(s scenario.Strategy) (string, peer.Aggregate) {
		search, e, _ := s.Build(func(f func(u int) peer.Router) peer.QueryEngine {
			return flat.NewEngine(g, model, f)
		})
		if s.Warm {
			routing.RunWorkload(stats.NewRNG(o.seed+2), search, e, o.warm)
		}
		return search.Name(), peer.Summarize(routing.RunWorkload(stats.NewRNG(o.seed+1), search, e, o.queries))
	}
	_, floodAgg := measure(floodSt)
	name, agg := measure(st)

	t := metrics.NewTable(fmt.Sprintf("%s on %s (%d nodes, TTL %d, %d queries)",
		name, o.topology, o.nodes, o.ttl, o.queries),
		"strategy", "success", "msgs/query", "dup/query", "hit hops", "nodes reached")
	addRow := func(name string, a peer.Aggregate) {
		t.AddRow(name, a.SuccessRate, fmt.Sprintf("%.0f", a.AvgMessages),
			fmt.Sprintf("%.0f", a.AvgDuplicates), fmt.Sprintf("%.2f", a.AvgHitHops),
			fmt.Sprintf("%.0f", a.AvgReached))
	}
	addRow("flooding (baseline)", floodAgg)
	addRow(name, agg)
	fmt.Fprintln(stdout, t.String())
	if floodAgg.AvgMessages > 0 {
		fmt.Fprintf(stdout, "traffic vs flooding: %.1f%%\n", 100*agg.AvgMessages/floodAgg.AvgMessages)
	}
	return 0
}
