// Command arqnet runs the message-level overlay simulation on the flat
// engine (internal/peer/flat), comparing a chosen routing strategy
// against flooding on the same topology and workload.
//
//	arqnet -router assoc -nodes 2000 -queries 5000
//	arqnet -router kwalk -walkers 16
//	arqnet -router flood -nodes 1000000 -queries 200
//	arqnet -chaos -nodes 200 -warm 2000 -queries 400
package main

import (
	"flag"
	"fmt"
	"os"

	"arq/internal/chaos"
	"arq/internal/cluster"
	"arq/internal/content"
	"arq/internal/metrics"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

var (
	router   = flag.String("router", "assoc", "flood | expring | kwalk | assoc | assoc2ph | ri | shortcuts")
	topology = flag.String("topology", "gnutella", "gnutella | random | smallworld")
	nodes    = flag.Int("nodes", 2000, "overlay size")
	nq       = flag.Int("queries", 5000, "measured queries")
	warm     = flag.Int("warm", 20000, "warm-up queries for learning strategies")
	ttl      = flag.Int("ttl", 7, "query TTL")
	walkers  = flag.Int("walkers", 16, "k for k-random walks")
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
	topo := *topology
	if *chaosRun {
		topo = "gnutella" // the soak's overlay, whatever -topology says
	}
	err := checkNodes(topo, *nodes)
	if err == nil && *chaosRun {
		err = checkChaos(*warm, *nq, *ttl)
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
	g := buildOverlay(topo, rng, *nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	// Baseline flood for comparison.
	ef := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
	floodAgg := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+1),
		&routing.OneShot{Label: "flood", E: ef, TTL: *ttl}, ef, *nq))

	searcher, e, needsWarm, err := buildSearcher(g, model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if needsWarm {
		routing.RunWorkload(stats.NewRNG(*seed+2), searcher, e, *warm)
	}
	agg := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+1), searcher, e, *nq))

	t := metrics.NewTable(fmt.Sprintf("%s on %s (%d nodes, TTL %d, %d queries)",
		searcher.Name(), *topology, *nodes, *ttl, *nq),
		"strategy", "success", "msgs/query", "dup/query", "hit hops", "nodes reached")
	addRow := func(name string, a peer.Aggregate) {
		t.AddRow(name, a.SuccessRate, fmt.Sprintf("%.0f", a.AvgMessages),
			fmt.Sprintf("%.0f", a.AvgDuplicates), fmt.Sprintf("%.2f", a.AvgHitHops),
			fmt.Sprintf("%.0f", a.AvgReached))
	}
	addRow("flooding (baseline)", floodAgg)
	addRow(searcher.Name(), agg)
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
// warm-up queries, -queries 0 500 per phase and -ttl 0 TTL 6).
func checkChaos(warm, queries, ttl int) error {
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

func buildSearcher(g *overlay.Graph, model *content.Model) (routing.Searcher, peer.QueryEngine, bool, error) {
	mk := func(f func(u int) peer.Router) peer.QueryEngine { return flat.NewEngine(g, model, f) }
	switch *router {
	case "flood":
		e := mk(func(u int) peer.Router { return routing.Flood{} })
		return &routing.OneShot{Label: "flood", E: e, TTL: *ttl}, e, false, nil
	case "expring":
		e := mk(func(u int) peer.Router { return routing.Flood{} })
		return &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: *ttl}, e, false, nil
	case "kwalk":
		wrng := stats.NewRNG(*seed + 3)
		e := mk(func(u int) peer.Router { return &routing.RandomWalk{K: *walkers, RNG: wrng.Split()} })
		return &routing.OneShot{Label: "k-walk", E: e, TTL: 1024}, e, false, nil
	case "assoc":
		as := routing.NewAssocs(g.N(), routing.DefaultAssocConfig())
		e := mk(func(u int) peer.Router { return &as[u] })
		return &routing.OneShot{Label: "assoc", E: e, TTL: *ttl}, e, true, nil
	case "assoc2ph":
		cfg := routing.DefaultAssocConfig()
		cfg.Strict = true
		as := routing.NewAssocs(g.N(), cfg)
		e := mk(func(u int) peer.Router { return &as[u] })
		return &routing.AssocTwoPhase{E: e, TTL: *ttl}, e, true, nil
	case "ri":
		idx := routing.BuildRoutingIndices(g, model.HostedCategories, 4, 2)
		e := mk(func(u int) peer.Router { return idx[u] })
		return &routing.OneShot{Label: "routing-index", E: e, TTL: *ttl}, e, false, nil
	case "shortcuts":
		e := mk(func(u int) peer.Router { return routing.Flood{} })
		return routing.NewShortcuts(e, *ttl, 5, 10), e, true, nil
	default:
		return nil, nil, false, fmt.Errorf("arqnet: unknown router %q (valid: flood, expring, kwalk, assoc, assoc2ph, ri, shortcuts)", *router)
	}
}
