// Command arqsim runs one trace-driven rule-maintenance simulation — the
// equivalent of the paper's PHP query simulator (§IV-B) — and prints the
// per-block coverage and success series.
//
// The trace comes either from the built-in calibrated generator or from a
// JSONL file produced by arqtrace, pairs or a raw capture to join:
//
//	arqsim -policy sliding -trials 365
//	arqsim -policy adaptive -window 50 -threshold 10
//	arqsim -policy lazy -interval 10 -trace pairs.jsonl -block 10000
//	arqsim -policy sliding -csv > sliding.csv
//
// With -net it instead drives a preset scenario (-scenario, default
// baseline) through scenario.Runner on the flat engine and the same
// block/series harness (sim.RunBlocks):
//
//	arqsim -net -nodes 100000 -trials 5 -block 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"arq/internal/core"
	"arq/internal/db"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/scenario"
	"arq/internal/sim"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

var (
	policy    = flag.String("policy", "sliding", strings.Join(core.PolicyNames(), " | "))
	threshold = flag.Int("threshold", 10, "support-pruning threshold")
	blockSize = flag.Int("block", 10000, "query-reply pairs per block")
	trials    = flag.Int("trials", 365, "tested blocks")
	seed      = flag.Uint64("seed", 1, "generator seed (ignored with -trace)")
	width     = flag.Int("width", core.DefaultWideWidth, "wide: pooled window width in blocks")
	interval  = flag.Int("interval", 10, "lazy: blocks between regenerations")
	window    = flag.Int("window", 10, "adaptive: previous values used for thresholds")
	initThr   = flag.Float64("init", 0.7, "adaptive: initial coverage/success threshold")
	traceFile = flag.String("trace", "", "JSONL trace of pairs, or a raw capture to join (default: built-in generator)")
	csvOut    = flag.Bool("csv", false, "emit per-block CSV instead of a report")
	everyN    = flag.Int("every", 10, "print every Nth block in report mode")

	netMode   = flag.Bool("net", false, "run a message-level network simulation instead of the policy simulator")
	netRouter = flag.String("router", "flood", "net: a strategy of the catalogue (scenario.Strategies): flood | expanding-ring | kwalk-16 | routing-index | interest-shortcuts | assoc | assoc-two-phase")
	netNodes  = flag.Int("nodes", 2000, "net: overlay size")
	netTTL    = flag.Int("ttl", 7, "net: query TTL")
	scenName  = flag.String("scenario", "", "run a preset scenario ("+strings.Join(scenario.Names(), ", ")+"): policy mode projects it onto the trace generator, -net drives the full dynamic workload (default baseline)")
)

func main() {
	flag.Parse()
	if err := checkSizes(*blockSize, *trials, *everyN); err != nil {
		fmt.Fprintln(os.Stderr, "arqsim:", err)
		os.Exit(2)
	}
	if err := checkNetNodes(*netMode, *netNodes); err != nil {
		fmt.Fprintln(os.Stderr, "arqsim:", err)
		os.Exit(2)
	}
	if *netMode {
		runNet()
		return
	}

	p, err := buildPolicy()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	src, err := buildSource()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	res := sim.Run(*policy, p, src, *trials)

	if *csvOut {
		fmt.Print("block,coverage,success\n")
		for i := range res.Coverage.Values {
			fmt.Printf("%d,%.6f,%.6f\n", i+1, res.Coverage.Values[i], res.Success.Values[i])
		}
		return
	}

	fmt.Printf("policy=%s threshold=%d block=%d trials=%d\n",
		*policy, *threshold, *blockSize, res.Trials)
	fmt.Printf("%-7s %-10s %-10s\n", "block", "coverage", "success")
	for i := 0; i < res.Trials; i += *everyN {
		fmt.Printf("%-7d %-10.3f %-10.3f\n", i+1,
			res.Coverage.Values[i], res.Success.Values[i])
	}
	fmt.Println()
	fmt.Printf("coverage  %s  avg=%.3f\n", res.Coverage.Sparkline(60), res.MeanCoverage())
	fmt.Printf("success   %s  avg=%.3f\n", res.Success.Sparkline(60), res.MeanSuccess())
	fmt.Printf("rule-set generations after warm-up: %d", res.Regens)
	if res.Regens > 0 {
		fmt.Printf(" (one per %.2f blocks)", res.BlocksPerRegen())
	}
	fmt.Println()
	fmt.Printf("rule-set size: mean %.0f rules (min %.0f, max %.0f)\n",
		res.RuleCount.Mean(), res.RuleCount.Min(), res.RuleCount.Max())
}

// checkSizes rejects a block size, trial count or report stride below 1:
// a run is made of whole blocks, and the report walks the series in
// steps of -every.
func checkSizes(block, trials, every int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"block", block}, {"trials", trials}, {"every", every}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	return nil
}

// minNetNodes is the smallest overlay a scenario builds: its gnutella
// core attaches every node to 2 earlier ones.
const minNetNodes = 3

// checkNetNodes rejects, in -net mode, an overlay smaller than a scenario
// builds (-nodes 2 used to panic in the generator).
func checkNetNodes(net bool, n int) error {
	if net && n < minNetNodes {
		return fmt.Errorf("-nodes must be at least %d with -net, got %d", minNetNodes, n)
	}
	return nil
}

// runNet drives a preset scenario — dynamics, roles, top-k and all —
// through the flat engine and the selected strategy of the catalogue via
// scenario.Runner, -trials blocks of -block queries each, and prints the
// per-block series: the network-level analogue of the policy report,
// produced by the same sim harness.
func runNet() {
	name := *scenName
	if name == "" {
		name = "baseline"
	}
	sc, err := scenario.ByName(name, *netNodes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqsim:", err)
		os.Exit(2)
	}
	sc.Query.TTL = *netTTL
	g, m := sc.Build()
	st, err := scenario.StrategyByName(scenario.Strategies(g, m, sc.Query, sc.Seed), *netRouter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqsim:", err)
		os.Exit(2)
	}
	// rejoin is the router a churned node comes back with.
	search, eng, rejoin := st.Build(func(f func(u int) peer.Router) peer.QueryEngine {
		return flat.NewEngine(g, m, f)
	})
	r := scenario.NewRunner(sc, g, m, eng, search, rejoin)
	res := sim.RunBlocks(sc.Name+"/"+*netRouter, r, *trials, *blockSize)

	if *csvOut {
		fmt.Print("block,coverage,success\n")
		for i := range res.Coverage.Values {
			fmt.Printf("%d,%.6f,%.6f\n", i+1, res.Coverage.Values[i], res.Success.Values[i])
		}
		return
	}
	fmt.Printf("scenario=%s router=%s nodes=%d ttl=%d block=%d trials=%d\n",
		sc.Name, *netRouter, *netNodes, sc.Query.TTL, *blockSize, res.Trials)
	fmt.Printf("coverage  %s  avg=%.3f\n", res.Coverage.Sparkline(60), res.MeanCoverage())
	fmt.Printf("success   %s  avg=%.3f\n", res.Success.Sparkline(60), res.MeanSuccess())
	fmt.Printf("wall: %.2fs (%.0f queries/sec)\n", float64(res.WallNanos)/1e9,
		float64(res.Trials**blockSize)/(float64(res.WallNanos)/1e9))
}

func buildPolicy() (core.Policy, error) {
	switch *policy {
	case "static":
		return &core.Static{Prune: *threshold}, nil
	case "sliding":
		return &core.Sliding{Prune: *threshold}, nil
	case "wide":
		return &core.Sliding{Prune: *threshold, Width: *width}, nil
	case "lazy":
		return &core.Lazy{Prune: *threshold, Interval: *interval}, nil
	case "adaptive":
		return &core.Adaptive{Prune: *threshold, Window: *window, Init: *initThr}, nil
	case "incremental":
		return &core.Incremental{}, nil
	default:
		return nil, fmt.Errorf("arqsim: unknown policy %q (valid: %s)", *policy, strings.Join(core.PolicyNames(), ", "))
	}
}

func buildSource() (trace.Source, error) {
	if *traceFile == "" {
		if *scenName != "" {
			// Project the scenario onto the trace generator: same
			// category space, popularity, profile size, and regime
			// shock, at the vantage node.
			sc, err := scenario.ByName(*scenName, *netNodes, *seed)
			if err != nil {
				return nil, fmt.Errorf("arqsim: %w", err)
			}
			return tracegen.New(sc.TraceConfig(*blockSize, *trials+1)), nil
		}
		cfg := tracegen.PaperProfile()
		cfg.Seed = *seed
		cfg.BlockSize = *blockSize
		cfg.TotalBlocks = *trials + 1
		return tracegen.New(cfg), nil
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	qs, rs, pairs, err := trace.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		// A raw capture (arqtrace -raw): join it as §IV-A does.
		imp, _ := db.Import(qs, rs) // the error is always nil
		pairs = imp.PairSlice()
	}
	if err := checkTraceSize(len(pairs), *blockSize); err != nil {
		fmt.Fprintf(os.Stderr, "arqsim: %s: %v\n", *traceFile, err)
		os.Exit(2)
	}
	return trace.NewSliceSource(pairs, *blockSize), nil
}

// checkTraceSize refuses a trace that fills at most one block: the first
// block is every policy's warm-up, so no block would be tested (such a
// run used to print trials=0 and avg=0.000 and exit 0).
func checkTraceSize(pairs, block int) error {
	if pairs <= block {
		return fmt.Errorf("%d query-reply pairs fill at most one -block of %d, the warm-up: no block would be tested", pairs, block)
	}
	return nil
}
