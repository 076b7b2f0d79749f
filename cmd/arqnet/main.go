// Command arqnet runs the message-level overlay simulation on the flat
// engine (internal/peer/flat), comparing one strategy of the catalogue
// (scenario.Strategies) against flooding on the same topology and
// workload.
//
//	arqnet -router assoc -nodes 2000 -queries 5000
//	arqnet -router kwalk-16
//	arqnet -router flood -nodes 1000000 -queries 200
//	arqnet -chaos -nodes 200 -warm 2000 -queries 400
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"arq/internal/chaos"
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

var (
	router   = flag.String("router", "assoc", "a strategy of the catalogue: flood | expanding-ring | kwalk-16 | routing-index | interest-shortcuts | assoc | assoc-two-phase")
	topology = flag.String("topology", "gnutella", "gnutella | random | smallworld")
	nodes    = flag.Int("nodes", 2000, "overlay size")
	nq       = flag.Int("queries", 5000, "measured queries")
	warm     = flag.Int("warm", 20000, "warm-up queries for learning strategies")
	ttl      = flag.Int("ttl", 7, "query TTL")
	seed     = flag.Uint64("seed", 42, "seed for topology, content, and workload")
	chaosRun = flag.Bool("chaos", false, "run the fault-injection chaos soak instead of a strategy comparison")
)

func main() {
	// A process launched by cluster.Run is a cluster node, not a CLI:
	// ChildMain runs the node and exits before any flag parsing.
	cluster.ChildMain()
	flag.Parse()
	if *netN > 0 {
		runNetCluster()
		return
	}
	if *listenAddr != "" {
		runListen()
		return
	}
	var err error
	if *chaosRun {
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		err = checkChaos(*warm, *nq, *ttl, set)
	}
	if err == nil {
		err = checkNodes(*topology, *nodes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqnet:", err)
		os.Exit(2)
	}
	if *chaosRun {
		runChaos()
		return
	}
	rng := stats.NewRNG(*seed)
	g := buildOverlay(*topology, rng, *nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	strats := scenario.Strategies(g, model, peer.QuerySpec{TTL: *ttl}, *seed)
	floodSt, _ := scenario.StrategyByName(strats, "flood")
	st, err := scenario.StrategyByName(strats, *router)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqnet:", err)
		os.Exit(2)
	}
	// measure builds s on a fresh flat engine, warms it if it learns,
	// and runs the measured workload: the same queries for every strategy.
	measure := func(s scenario.Strategy) (string, peer.Aggregate) {
		search, e, _ := s.Build(func(f func(u int) peer.Router) peer.QueryEngine {
			return flat.NewEngine(g, model, f)
		})
		if s.Warm {
			routing.RunWorkload(stats.NewRNG(*seed+2), search, e, *warm)
		}
		return search.Name(), peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+1), search, e, *nq))
	}
	_, floodAgg := measure(floodSt)
	name, agg := measure(st)

	t := metrics.NewTable(fmt.Sprintf("%s on %s (%d nodes, TTL %d, %d queries)",
		name, *topology, *nodes, *ttl, *nq),
		"strategy", "success", "msgs/query", "dup/query", "hit hops", "nodes reached")
	addRow := func(name string, a peer.Aggregate) {
		t.AddRow(name, a.SuccessRate, fmt.Sprintf("%.0f", a.AvgMessages),
			fmt.Sprintf("%.0f", a.AvgDuplicates), fmt.Sprintf("%.2f", a.AvgHitHops),
			fmt.Sprintf("%.0f", a.AvgReached))
	}
	addRow("flooding (baseline)", floodAgg)
	addRow(name, agg)
	fmt.Println(t.String())
	if floodAgg.AvgMessages > 0 {
		fmt.Printf("traffic vs flooding: %.1f%%\n", 100*agg.AvgMessages/floodAgg.AvgMessages)
	}
}

// minNodes is the smallest overlay each topology builds: the gnutella
// core attaches every node to 2 earlier ones, and the small-world ring
// links every node to its 4 nearest.
var minNodes = map[string]int{"gnutella": 3, "random": 1, "smallworld": 5}

// checkNodes rejects an unknown topology, and an overlay smaller than its
// topology builds (-nodes 2 used to panic in the generator, and -chaos
// -nodes 0 to run 300 nodes).
func checkNodes(topology string, n int) error {
	least, ok := minNodes[topology]
	switch {
	case !ok:
		return fmt.Errorf("unknown topology %q (valid: gnutella, random, smallworld)", topology)
	case n < least:
		return fmt.Errorf("-nodes must be at least %d on the %s topology, got %d", least, topology, n)
	}
	return nil
}

// checkChaos rejects a drill setting below 1: -chaos hands -warm,
// -queries and -ttl to the drill as they are (-warm 0 used to run 3 000
// warm-up queries, -queries 0 500 per phase and -ttl 0 TTL 6). It also
// rejects -topology and -router among the flags set on the command line:
// the drill runs its own deployments on the gnutella overlay, so neither
// would take effect.
func checkChaos(warm, queries, ttl int, set []string) error {
	for _, name := range []string{"topology", "router"} {
		if slices.Contains(set, name) {
			return fmt.Errorf("-%s does not apply under -chaos: the drill runs its own deployments on the gnutella overlay", name)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"warm", warm}, {"queries", queries}, {"ttl", ttl}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1 under -chaos, got %d", f.name, f.v)
		}
	}
	return nil
}

// buildOverlay builds a topology checkNodes accepted.
func buildOverlay(topology string, rng *stats.RNG, n int) *overlay.Graph {
	switch topology {
	case "random":
		return overlay.Random(rng, n, 4)
	case "smallworld":
		return overlay.WattsStrogatz(rng, n, 4, 0.1)
	}
	return overlay.GnutellaLike(rng, n)
}

// runChaos drives the seeded chaos soak (internal/chaos): clean and
// faulted phases of the association-routing overlay as deployed, plus the
// process-recovery A/B (no restart vs cold vs warm restart from
// codec-round-tripped rule snapshots). The output carries no timings and
// no map-ordered iteration, so identical flags print identical bytes — CI
// runs this twice and diffs (the chaos-smoke job).
func runChaos() {
	err := chaos.Report(os.Stdout, chaos.Config{
		Seed: *seed, Nodes: *nodes, Warm: *warm, Queries: *nq, TTL: *ttl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqnet:", err)
		os.Exit(1)
	}
}
