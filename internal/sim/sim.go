// Package sim is the query-simulator harness of paper §IV-B: it drives a
// rule-maintenance policy over successive blocks of query–reply pairs,
// collects per-block coverage and success, and runs whole grids of
// simulations in parallel (the paper ran 22 configurations; `cmd/arqbench`
// regenerates all of them through this package).
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"arq/internal/core"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Result summarizes one simulation run.
type Result struct {
	// Name labels the run (policy plus parameters).
	Name string
	// Coverage and Success hold the per-tested-block series (the y-axes
	// of the paper's Figs. 1–4).
	Coverage *stats.Series
	Success  *stats.Series
	// Trials is the number of tested blocks.
	Trials int
	// Regens counts rule-set generations after the initial build.
	Regens int
	// RuleCount summarizes rule-set sizes across tested blocks.
	RuleCount stats.Summary
	// Blocks is the total number of blocks consumed, including warm-up
	// blocks that were not tested.
	Blocks int
}

// MeanCoverage returns the run-average coverage (the paper's headline
// per-policy number).
func (r *Result) MeanCoverage() float64 { return r.Coverage.Mean() }

// MeanSuccess returns the run-average success.
func (r *Result) MeanSuccess() float64 { return r.Success.Mean() }

// BlocksPerRegen returns how many tested blocks elapse per rule-set
// generation (Sliding = 1.0 by construction; the paper reports 1.7–1.9 for
// Adaptive). Policies that never regenerate report +Inf.
func (r *Result) BlocksPerRegen() float64 {
	if r.Regens == 0 {
		return math.Inf(1)
	}
	return float64(r.Trials) / float64(r.Regens)
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%-28s trials=%-4d coverage=%.3f success=%.3f regens=%d",
		r.Name, r.Trials, r.MeanCoverage(), r.MeanSuccess(), r.Regens)
}

// Run drives policy over src until the source is exhausted or maxTrials
// tested blocks have been recorded (maxTrials <= 0 means no limit). Blocks
// are handed to the policy as-is — policies fold them into count deltas
// rather than retaining them (see trace.Source), so streaming sources may
// reuse block storage between calls.
func Run(name string, policy core.Policy, src trace.Source, maxTrials int) *Result {
	res := &Result{
		Name:     name,
		Coverage: stats.NewSeries(name + "/coverage"),
		Success:  stats.NewSeries(name + "/success"),
	}
	for {
		if maxTrials > 0 && res.Trials >= maxTrials {
			break
		}
		block, ok := src.Next()
		if !ok {
			break
		}
		res.Blocks++
		step := policy.Step(block)
		if !step.Tested {
			continue
		}
		res.Trials++
		res.Coverage.Add(step.Result.Coverage())
		res.Success.Add(step.Result.Success())
		res.RuleCount.Add(float64(step.Rules))
		if step.Regenerated {
			res.Regens++
		}
	}
	return res
}

// Spec describes one simulation for a sweep. Factories are invoked inside
// the worker goroutine, so a Spec is safe to fan out even though policies
// and sources themselves are single-goroutine objects.
type Spec struct {
	Name   string
	Policy func() core.Policy
	Source func() trace.Source
}

// Sweep runs every spec, fanning out across workers goroutines
// (workers <= 0 selects GOMAXPROCS). Results are returned in spec order
// regardless of completion order, and the sweep is deterministic because
// each spec constructs its own seeded source.
func Sweep(specs []Spec, workers int) []*Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]*Result, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := specs[i]
				results[i] = Run(s.Name, s.Policy(), s.Source(), 0)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}
