package sim

import (
	"time"

	"arq/internal/peer"
	"arq/internal/stats"
)

// BlockSource serves a workload block by block — the harness-side
// surface a scenario runner (internal/scenario.Runner) or any other
// query driver exposes. It is satisfied structurally, so scenario can
// implement it without sim importing scenario.
type BlockSource interface {
	Nodes() int
	// Block issues nQueries queries and returns their per-query stats.
	Block(nQueries int) []peer.Stats
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
	return res
}
