package sim

import (
	"time"

	"arq/internal/peer"
	"arq/internal/stats"
)

// NetEngine is the workload surface a message-level network engine
// exposes to the sim harness: flat.Engine satisfies it, and so does the
// oracle peer.Engine the net tests compare it against.
type NetEngine interface {
	Nodes() int
	Workload(rng *stats.RNG, nQueries, ttl int) []peer.Stats
}

// NetSpec describes one engine-backed network simulation.
type NetSpec struct {
	Name string
	// Engine constructs the network engine (graph, content, routers).
	Engine func() NetEngine
	// Seed feeds the workload RNG; the engine factory should derive its
	// own seeds so a spec is fully self-contained.
	Seed uint64
	// Blocks is the number of tested blocks; BlockSize is queries per
	// block — the network analogue of the policy harness's query blocks.
	Blocks, BlockSize int
	// TTL bounds each query.
	TTL int
}

// BlockSource serves a workload block by block — the harness-side
// surface a scenario runner (internal/scenario.Runner) or any other
// query driver exposes. It is satisfied structurally, so scenario can
// implement it without sim importing scenario.
type BlockSource interface {
	Nodes() int
	// Block issues nQueries queries and returns their per-query stats.
	Block(nQueries int) []peer.Stats
}

// engineSource adapts a NetEngine plus a workload RNG to BlockSource —
// the classic uniform-workload drive RunNet has always used.
type engineSource struct {
	e   NetEngine
	rng *stats.RNG
	ttl int
}

func (s *engineSource) Nodes() int { return s.e.Nodes() }

func (s *engineSource) Block(nQueries int) []peer.Stats {
	return s.e.Workload(s.rng, nQueries, s.ttl)
}

// RunBlocks drives a block source through the same block structure as
// Run: each block is blockSize queries, the per-block success rate
// feeds the Success series and the per-block mean reach fraction feeds
// Coverage, so network runs produce the same *Result shape (and reuse
// the same reporting and sweep plumbing) as the paper's policy runs.
func RunBlocks(name string, src BlockSource, blocks, blockSize int) *Result {
	start := time.Now()
	res := &Result{
		Name:     name,
		Coverage: stats.NewSeries(name + "/coverage"),
		Success:  stats.NewSeries(name + "/success"),
	}
	n := float64(src.Nodes())
	for b := 0; b < blocks; b++ {
		agg := peer.Summarize(src.Block(blockSize))
		res.Blocks++
		res.Trials++
		res.Success.Add(agg.SuccessRate)
		res.Coverage.Add(agg.AvgReached / n)
	}
	res.WallNanos = time.Since(start).Nanoseconds()
	mRuns.Inc()
	mBlocks.Add(int64(res.Blocks))
	mTrials.Add(int64(res.Trials))
	mRunNs.Observe(res.WallNanos)
	return res
}

// RunNet drives an engine-backed uniform workload: RunBlocks over the
// engine's own Workload draw.
func RunNet(spec NetSpec) *Result {
	src := &engineSource{e: spec.Engine(), rng: stats.NewRNG(spec.Seed), ttl: spec.TTL}
	return RunBlocks(spec.Name, src, spec.Blocks, spec.BlockSize)
}
