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
	"time"

	"arq/internal/core"
	"arq/internal/obsv"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Observability instruments (registered once; recording is atomic adds on
// the run boundary, never inside the per-block loop).
var (
	mRuns      = obsv.GetCounter("sim.runs")
	mBlocks    = obsv.GetCounter("sim.blocks")
	mTrials    = obsv.GetCounter("sim.trials")
	mRunNs     = obsv.GetHistogram("sim.run_ns", obsv.DurationBuckets())
	mSweeps    = obsv.GetCounter("sim.sweep.sweeps")
	mSpecs     = obsv.GetCounter("sim.sweep.specs")
	mBusyNs    = obsv.GetCounter("sim.sweep.busy_ns")
	mWallNs    = obsv.GetCounter("sim.sweep.wall_ns")
	mWorkers   = obsv.GetGauge("sim.sweep.workers")
	mUtilizPct = obsv.GetGauge("sim.sweep.utilization_pct")
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
	// WallNanos is the wall-clock duration of the run (policy stepping
	// plus source generation), for throughput tracking; it carries no
	// simulation semantics and is excluded from determinism comparisons.
	WallNanos int64
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
	start := time.Now()
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
	res.WallNanos = time.Since(start).Nanoseconds()
	mRuns.Inc()
	mBlocks.Add(int64(res.Blocks))
	mTrials.Add(int64(res.Trials))
	mRunNs.Observe(res.WallNanos)
	return res
}

// Spec describes one simulation for a sweep. Factories are invoked inside
// the worker goroutine, so a Spec is safe to fan out even though policies
// and sources themselves are single-goroutine objects.
type Spec struct {
	Name      string
	Policy    func() core.Policy
	Source    func() trace.Source
	MaxTrials int
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
	start := time.Now()
	results := make([]*Result, len(specs))
	busy := make([]int64, workers) // per-worker busy ns, written only by its goroutine
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := specs[i]
				results[i] = Run(s.Name, s.Policy(), s.Source(), s.MaxTrials)
				busy[w] += results[i].WallNanos
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	wall := time.Since(start).Nanoseconds()
	var busyTotal int64
	for _, b := range busy {
		busyTotal += b
	}
	mSweeps.Inc()
	mSpecs.Add(int64(len(specs)))
	mBusyNs.Add(busyTotal)
	mWallNs.Add(wall)
	mWorkers.Set(int64(workers))
	if wall > 0 && workers > 0 {
		mUtilizPct.Set(100 * busyTotal / (wall * int64(workers)))
	}
	return results
}
