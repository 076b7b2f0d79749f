// Quickstart: mine routing rules from a block of query–reply traffic,
// inspect them, and evaluate them against the next block — the complete
// core loop of the paper in ~40 lines.
package main

import (
	"fmt"

	"arq/internal/core"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

func main() {
	// A synthetic vantage-node trace with the calibrated paper profile:
	// 120 neighbors with churn, Zipf interests, drifting reply paths.
	cfg := tracegen.PaperProfile()
	cfg.BlockSize = 10_000
	cfg.TotalBlocks = 2
	gen := tracegen.New(cfg)

	genBlock, _ := gen.Next()
	testBlock, _ := gen.Next()

	// GENERATE-RULESET: count (source, replier) pairs, prune below
	// support 10 (the paper's default threshold).
	rules := core.GenerateRuleSet(genBlock, 10)
	fmt.Printf("mined %d rules from %d pairs; examples:\n", rules.Len(), len(genBlock))
	var src trace.HostID // the first rule's antecedent
	shown := 0
	rules.Range(func(k core.PairKey, support float64) bool {
		if shown == 0 {
			src = k.Source()
		}
		fmt.Printf("   {%s} -> {%s} (support %.0f)\n", k.Source(), k.Replier(), support)
		shown++
		return shown < 5
	})

	// Routing decision: where would we forward a query from this host?
	fmt.Printf("\nquery from %s would be forwarded to: %v (instead of flooding)\n",
		src, rules.Consequents(src, 2))

	// RULESET-TEST: coverage (α) and success (ρ) on the next block.
	res := rules.Test(testBlock)
	fmt.Printf("\nnext block: N=%d covered=%d successful=%d\n",
		res.N, res.Covered, res.Successful)
	fmt.Printf("coverage α = %.3f   success ρ = %.3f\n", res.Coverage(), res.Success())

	// The same loop, maintained automatically: Sliding Window regenerates
	// the rule set from each block before testing the next.
	sliding := &core.Sliding{Prune: 10}
	cfg.TotalBlocks = 12
	cfg.Seed = 7
	gen = tracegen.New(cfg)
	fmt.Println("\nSliding Window over 11 blocks:")
	for {
		block, ok := gen.Next()
		if !ok {
			break
		}
		step := sliding.Step(block)
		if step.Tested {
			fmt.Printf("  α=%.3f ρ=%.3f (rules: %d)\n",
				step.Result.Coverage(), step.Result.Success(), step.Rules)
		}
	}
}
