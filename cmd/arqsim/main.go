// Command arqsim runs one trace-driven rule-maintenance simulation — the
// equivalent of the paper's PHP query simulator (§IV-B) — and prints the
// per-block coverage and success series. A trace it cannot read, and a
// flag the run does not read or a size below its least value (see
// flags), exit 2 with one line.
//
// The trace comes either from the built-in calibrated generator or from a
// JSONL file produced by arqtrace, pairs or a raw capture to join:
//
//	arqsim -policy sliding -trials 365
//	arqsim -policy adaptive -window 50 -threshold 10
//	arqsim -policy lazy -interval 10 -trace pairs.jsonl -block 10000
//	arqsim -policy sliding -csv > sliding.csv
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"arq/internal/cli"
	"arq/internal/core"
	"arq/internal/db"
	"arq/internal/scenario"
	"arq/internal/sim"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

type options struct {
	policy, traceFile, scenario     string
	threshold, block, trials, every int
	width, interval, window         int
	init                            float64
	seed                            uint64
	csv                             bool
}

// flags is arqsim's flag table. Its modes are a policy name, the trace
// source (generator or trace) and the output (report or csv).
func (o *options) flags() []cli.Flag {
	return []cli.Flag{
		cli.Var(&o.policy, "policy", "sliding", strings.Join(core.PolicyNames(), " | ")),
		cli.Var(&o.threshold, "threshold", 10, "support-pruning threshold").AtLeast(1).In("static", "sliding", "wide", "lazy", "adaptive"),
		cli.Var(&o.block, "block", 10000, "query-reply pairs per block").AtLeast(1),
		cli.Var(&o.trials, "trials", 365, "tested blocks").AtLeast(1),
		cli.Var(&o.seed, "seed", 1, "generator seed").In("generator"),
		cli.Var(&o.width, "width", core.DefaultWideWidth, "wide: pooled window width in blocks").AtLeast(1).In("wide"),
		cli.Var(&o.interval, "interval", 10, "lazy: blocks between regenerations").AtLeast(1).In("lazy"),
		cli.Var(&o.window, "window", 10, "adaptive: previous values used for thresholds").AtLeast(1).In("adaptive"),
		cli.Var(&o.init, "init", 0.7, "adaptive: initial coverage/success threshold").In("adaptive"),
		cli.Var(&o.traceFile, "trace", "", "JSONL trace of pairs, or a raw capture to join (default: built-in generator)"),
		cli.Var(&o.csv, "csv", false, "emit per-block CSV instead of a report"),
		cli.Var(&o.every, "every", 10, "print every Nth block in report mode").AtLeast(1).In("report"),
		cli.Var(&o.scenario, "scenario", "", "project a preset scenario ("+strings.Join(scenario.Names(), ", ")+") onto the generator").In("generator"),
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	c := &cli.Command{Name: "arqsim", Stderr: stderr, Flags: o.flags()}
	if err := c.Parse(args); err != nil {
		return c.Refuse(err)
	}
	source, output := "generator", "report"
	if o.traceFile != "" {
		source = "trace"
	}
	if o.csv {
		output = "csv"
	}
	p, err := o.buildPolicy()
	if err == nil {
		err = c.Check(o.policy, source, output)
	}
	var src trace.Source
	if err == nil {
		src, err = o.buildSource()
	}
	if err != nil {
		return c.Refuse(err)
	}

	res := sim.Run(o.policy, p, src, o.trials)

	if o.csv {
		fmt.Fprint(stdout, "block,coverage,success\n")
		for i := range res.Coverage.Values {
			fmt.Fprintf(stdout, "%d,%.6f,%.6f\n", i+1, res.Coverage.Values[i], res.Success.Values[i])
		}
		return 0
	}

	fmt.Fprintf(stdout, "policy=%s threshold=%d block=%d trials=%d\n",
		o.policy, o.threshold, o.block, res.Trials)
	fmt.Fprintf(stdout, "%-7s %-10s %-10s\n", "block", "coverage", "success")
	for i := 0; i < res.Trials; i += o.every {
		fmt.Fprintf(stdout, "%-7d %-10.3f %-10.3f\n", i+1,
			res.Coverage.Values[i], res.Success.Values[i])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "coverage  %s  avg=%.3f\n", res.Coverage.Sparkline(60), res.MeanCoverage())
	fmt.Fprintf(stdout, "success   %s  avg=%.3f\n", res.Success.Sparkline(60), res.MeanSuccess())
	fmt.Fprintf(stdout, "rule-set generations after warm-up: %d", res.Regens)
	if res.Regens > 0 {
		fmt.Fprintf(stdout, " (one per %.2f blocks)", res.BlocksPerRegen())
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "rule-set size: mean %.0f rules (min %.0f, max %.0f)\n",
		res.RuleCount.Mean(), res.RuleCount.Min(), res.RuleCount.Max())
	return 0
}

func (o *options) buildPolicy() (core.Policy, error) {
	switch o.policy {
	case "static":
		return &core.Static{Prune: o.threshold}, nil
	case "sliding":
		return &core.Sliding{Prune: o.threshold}, nil
	case "wide":
		return &core.Sliding{Prune: o.threshold, Width: o.width}, nil
	case "lazy":
		return &core.Lazy{Prune: o.threshold, Interval: o.interval}, nil
	case "adaptive":
		return &core.Adaptive{Prune: o.threshold, Window: o.window, Init: o.init}, nil
	case "incremental":
		return &core.Incremental{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (valid: %s)", o.policy, strings.Join(core.PolicyNames(), ", "))
	}
}

func (o *options) buildSource() (trace.Source, error) {
	if o.traceFile == "" {
		if o.scenario != "" {
			// The projection onto the generator reads no node count.
			sc, err := scenario.ByName(o.scenario, 0, o.seed)
			if err != nil {
				return nil, err
			}
			return tracegen.New(sc.TraceConfig(o.block, o.trials+1)), nil
		}
		cfg := tracegen.PaperProfile()
		cfg.Seed = o.seed
		cfg.BlockSize = o.block
		cfg.TotalBlocks = o.trials + 1
		return tracegen.New(cfg), nil
	}
	f, err := os.Open(o.traceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	qs, rs, pairs, err := trace.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(pairs) > 0 && len(qs)+len(rs) > 0 {
		// A file is pairs or a raw capture: running either part of a
		// mixed one would drop the other without a word.
		return nil, fmt.Errorf("%s: %d pairs beside %d raw queries and %d replies: a trace is pairs or a raw capture, not both", o.traceFile, len(pairs), len(qs), len(rs))
	}
	if len(pairs) == 0 {
		// A raw capture (arqtrace -raw): join it as §IV-A does.
		imp, _ := db.Import(qs, rs) // the error is always nil
		pairs = imp.PairSlice()
	}
	if err := checkTraceSize(len(pairs), o.block); err != nil {
		return nil, fmt.Errorf("%s: %w", o.traceFile, err)
	}
	return trace.NewSliceSource(pairs, o.block), nil
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
