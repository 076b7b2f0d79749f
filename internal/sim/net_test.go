package sim

import (
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

func netSpec(name string, useFlat bool) NetSpec {
	return NetSpec{
		Name: name,
		Engine: func() NetEngine {
			rng := stats.NewRNG(51)
			g := overlay.GnutellaLike(rng, 200)
			m := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
			factory := func(u int) peer.Router { return routing.Flood{} }
			if useFlat {
				return flat.NewEngine(g, m, factory)
			}
			return peer.NewEngine(g, m, factory)
		},
		Seed:   7,
		Blocks: 4, BlockSize: 50,
		TTL: 5,
	}
}

func sameSeries(a, b *stats.Series) bool {
	av, bv := a.Values, b.Values
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestRunNetDeterministicAcrossEngines: the sim-level series must be
// bit-identical between repeated runs and between the two sequential
// engines.
func TestRunNetDeterministicAcrossEngines(t *testing.T) {
	seq := RunNet(netSpec("seq", false))
	seq2 := RunNet(netSpec("seq", false))
	fl := RunNet(netSpec("flat", true))

	if seq.Trials != 4 || seq.Blocks != 4 {
		t.Fatalf("trials=%d blocks=%d, want 4/4", seq.Trials, seq.Blocks)
	}
	if !sameSeries(seq.Coverage, seq2.Coverage) || !sameSeries(seq.Success, seq2.Success) {
		t.Fatal("repeated RunNet produced different series")
	}
	if !sameSeries(seq.Coverage, fl.Coverage) || !sameSeries(seq.Success, fl.Success) {
		t.Fatalf("flat engine diverged: seq cov=%v succ=%v, flat cov=%v succ=%v",
			seq.Coverage.Values, seq.Success.Values, fl.Coverage.Values, fl.Success.Values)
	}
	if seq.MeanSuccess() <= 0 || seq.MeanCoverage() <= 0 {
		t.Fatalf("degenerate run: success=%v coverage=%v", seq.MeanSuccess(), seq.MeanCoverage())
	}
}
