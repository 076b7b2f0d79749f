package flat_test

import (
	"sync"
	"testing"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

// Cached per-size engines: graph and content construction at 1M nodes
// dwarfs the measured queries, and the benchmark framework re-enters
// the function once per b.N calibration round.
var (
	benchMu      sync.Mutex
	benchEngines = map[int]*flat.Engine{}
	benchSink    peer.Stats
)

func benchEngine(n int) *flat.Engine {
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := benchEngines[n]; ok {
		return e
	}
	rng := stats.NewRNG(1)
	g := overlay.GnutellaLike(rng, n)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	e := flat.NewEngine(g, model, func(int) peer.Router { return routing.Flood{} })
	benchEngines[n] = e
	return e
}

// benchFlood measures one flood query end to end; messages per query is
// roughly 2.7x the node count on the GnutellaLike overlay, so divide
// ns/op accordingly for ns/msg.
func benchFlood(b *testing.B, n int) {
	e := benchEngine(n)
	wl := stats.NewRNG(2)
	jobs := peer.DrawWorkload(wl, e.ContentModel(), e.Nodes(), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		benchSink = e.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: 7})
	}
}

func BenchmarkFlood100k(b *testing.B) { benchFlood(b, 100_000) }
func BenchmarkFlood1M(b *testing.B)   { benchFlood(b, 1_000_000) }
