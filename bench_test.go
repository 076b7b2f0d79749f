package arq

// One benchmark per table and figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each benchmark
// runs the experiment at reduced scale (full scale is cmd/arqbench) and
// reports the paper's quality measures via b.ReportMetric, so
// `go test -bench=.` prints the same series the figures plot:
//
//	coverage/op, success/op      — α and ρ (Eq. 1–2)
//	regens/op                    — rule-set generations
//	msgs/query, success-rate/op  — network deployment costs
import (
	"fmt"
	"testing"

	"arq/internal/adapt"
	"arq/internal/assoc"
	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/db"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/replicate"
	"arq/internal/routing"
	"arq/internal/sim"
	"arq/internal/stats"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

const benchTrials = 30 // blocks per policy run inside benchmarks

func benchSource(blockSize int) trace.Source {
	cfg := tracegen.PaperProfile()
	cfg.BlockSize = blockSize
	cfg.TotalBlocks = benchTrials + 1
	return tracegen.New(cfg)
}

func reportPolicy(b *testing.B, r *sim.Result) {
	b.Helper()
	b.ReportMetric(r.MeanCoverage(), "coverage/op")
	b.ReportMetric(r.MeanSuccess(), "success/op")
	b.ReportMetric(float64(r.Regens), "regens/op")
}

// BenchmarkFig1SlidingWindow regenerates Figure 1: Sliding Window coverage
// and success over time (paper: >0.80 / ~0.79).
func BenchmarkFig1SlidingWindow(b *testing.B) {
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		last = sim.Run("sliding", &core.Sliding{Prune: 10}, benchSource(10000), 0)
	}
	reportPolicy(b, last)
}

// BenchmarkFig2BlockSizes regenerates Figure 2: Sliding Window coverage at
// different block sizes (paper: very similar levels).
func BenchmarkFig2BlockSizes(b *testing.B) {
	for _, bs := range []int{5000, 10000, 20000, 50000} {
		bs := bs
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run("sliding", &core.Sliding{Prune: 10}, benchSource(bs), 0)
			}
			reportPolicy(b, last)
		})
	}
}

// BenchmarkFig3LazySlidingWindow regenerates Figure 3: Lazy Sliding Window
// with each rule set reused for 10 blocks (paper: avg 0.59/0.59).
func BenchmarkFig3LazySlidingWindow(b *testing.B) {
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		last = sim.Run("lazy", &core.Lazy{Prune: 10, Interval: 10}, benchSource(10000), 0)
	}
	reportPolicy(b, last)
}

// BenchmarkFig4AdaptiveSlidingWindow regenerates Figure 4: Adaptive
// Sliding Window with thresholds from the previous N values (paper:
// 0.78/0.76 at one regeneration per 1.7 blocks for N=10; 1.9 for N=50).
func BenchmarkFig4AdaptiveSlidingWindow(b *testing.B) {
	for _, w := range []int{10, 50} {
		w := w
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run("adaptive", &core.Adaptive{Prune: 10, Window: w, Init: 0.7},
					benchSource(10000), 0)
			}
			reportPolicy(b, last)
			b.ReportMetric(last.BlocksPerRegen(), "blocks-per-regen/op")
		})
	}
}

// BenchmarkStaticRuleset regenerates the §V-A result: Static Ruleset decays
// (paper: averages 0.18 coverage, <0.02 success over 365 trials; success
// near zero from ~trial 16 on).
func BenchmarkStaticRuleset(b *testing.B) {
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		// Static needs the longer horizon for its averages to mean
		// anything; use 120 blocks.
		cfg := tracegen.PaperProfile()
		cfg.TotalBlocks = 121
		last = sim.Run("static", &core.Static{Prune: 10}, tracegen.New(cfg), 0)
	}
	reportPolicy(b, last)
	b.ReportMetric(last.Success.Tail(40), "late-success/op")
}

// BenchmarkIncrementalPolicy regenerates the §VI future-work result:
// stream-updated rules hold both measures above 0.90.
func BenchmarkIncrementalPolicy(b *testing.B) {
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		last = sim.Run("incremental", &core.Incremental{}, benchSource(10000), 0)
	}
	reportPolicy(b, last)
}

// BenchmarkImportPipeline regenerates the §IV-A capture-import pipeline
// (dedup by GUID, join into query-reply pairs) at reduced scale.
func BenchmarkImportPipeline(b *testing.B) {
	cfg := tracegen.PaperProfile()
	qs, rs := tracegen.New(cfg).GenerateRaw(100_000)
	b.ResetTimer()
	var imp *db.Importer
	for i := 0; i < b.N; i++ {
		var err error
		imp, err = db.Import(qs, rs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(imp.Stats.Pairs), "pairs/op")
	b.ReportMetric(float64(imp.Stats.DuplicateGUIDs), "dup-guids/op")
}

// BenchmarkAll22Simulations regenerates the §V campaign: the paper ran 22
// simulations across the four policies; the sweep runs them in parallel.
func BenchmarkAll22Simulations(b *testing.B) {
	mkSpecs := func() []sim.Spec {
		var specs []sim.Spec
		add := func(name string, p func() core.Policy, bs int) {
			specs = append(specs, sim.Spec{Name: name, Policy: p, Source: func() trace.Source {
				return benchSource(bs)
			}})
		}
		for _, bs := range []int{5000, 10000, 20000, 50000} {
			add("static", func() core.Policy { return &core.Static{Prune: 10} }, bs)
			add("sliding", func() core.Policy { return &core.Sliding{Prune: 10} }, bs)
		}
		for _, th := range []int{5, 20, 50} {
			th := th
			add("sliding-th", func() core.Policy { return &core.Sliding{Prune: th} }, 10000)
		}
		for _, iv := range []int{5, 10, 20} {
			iv := iv
			add("lazy", func() core.Policy { return &core.Lazy{Prune: 10, Interval: iv} }, 10000)
		}
		add("lazy", func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }, 5000)
		add("lazy", func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }, 20000)
		for _, w := range []int{10, 50} {
			w := w
			add("adaptive", func() core.Policy { return &core.Adaptive{Prune: 10, Window: w, Init: 0.7} }, 10000)
		}
		for _, init := range []float64{0.5, 0.8} {
			init := init
			add("adaptive-init", func() core.Policy { return &core.Adaptive{Prune: 10, Window: 10, Init: init} }, 10000)
		}
		add("adaptive-th", func() core.Policy { return &core.Adaptive{Prune: 5, Window: 10, Init: 0.7} }, 10000)
		add("adaptive-th", func() core.Policy { return &core.Adaptive{Prune: 20, Window: 10, Init: 0.7} }, 10000)
		return specs
	}
	if len(mkSpecs()) != 22 {
		b.Fatalf("campaign has %d configurations, want 22", len(mkSpecs()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Sweep(mkSpecs(), 0)
	}
}

// BenchmarkNetworkRouters regenerates the deployment comparison: the
// traffic-reduction claim of §I/§III measured message-by-message against
// the related-work baselines (§II).
func BenchmarkNetworkRouters(b *testing.B) {
	const (
		nodes = 800
		ttl   = 7
		warm  = 8000
		nq    = 1000
	)
	rng := stats.NewRNG(42)
	g := overlay.GnutellaLike(rng, nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	cases := []struct {
		name string
		make func() (routing.Searcher, *flat.Engine, bool)
	}{
		{"flood", func() (routing.Searcher, *flat.Engine, bool) {
			e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
			return &routing.OneShot{Label: "flood", E: e, TTL: ttl}, e, false
		}},
		{"expanding-ring", func() (routing.Searcher, *flat.Engine, bool) {
			e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
			return &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: ttl}, e, false
		}},
		{"k-walk", func() (routing.Searcher, *flat.Engine, bool) {
			wrng := stats.NewRNG(7)
			e := flat.NewEngine(g, model, func(u int) peer.Router {
				return &routing.RandomWalk{K: 16, RNG: wrng.Split()}
			})
			return &routing.OneShot{Label: "kwalk", E: e, TTL: 1024}, e, false
		}},
		{"routing-index", func() (routing.Searcher, *flat.Engine, bool) {
			idx := routing.BuildRoutingIndices(g, model.HostedCategories, 4, 2)
			e := flat.NewEngine(g, model, func(u int) peer.Router { return idx[u] })
			return &routing.OneShot{Label: "ri", E: e, TTL: ttl}, e, false
		}},
		{"shortcuts", func() (routing.Searcher, *flat.Engine, bool) {
			e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
			return routing.NewShortcuts(e, ttl, 5, 10), e, true
		}},
		{"assoc", func() (routing.Searcher, *flat.Engine, bool) {
			e := flat.NewEngine(g, model, func(u int) peer.Router {
				return routing.NewAssoc(routing.DefaultAssocConfig())
			})
			return &routing.OneShot{Label: "assoc", E: e, TTL: ttl}, e, true
		}},
		{"assoc-two-phase", func() (routing.Searcher, *flat.Engine, bool) {
			cfg := routing.DefaultAssocConfig()
			cfg.Strict = true
			e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.NewAssoc(cfg) })
			return &routing.AssocTwoPhase{E: e, TTL: ttl}, e, true
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var agg peer.Aggregate
			for i := 0; i < b.N; i++ {
				s, e, needsWarm := c.make()
				if needsWarm {
					routing.RunWorkload(stats.NewRNG(5), s, e, warm)
				}
				agg = peer.Summarize(routing.RunWorkload(stats.NewRNG(9), s, e, nq))
			}
			b.ReportMetric(agg.AvgMessages, "msgs/query")
			b.ReportMetric(agg.SuccessRate, "success-rate/op")
			b.ReportMetric(agg.AvgHitHops, "hit-hops/op")
		})
	}
}

// BenchmarkAblationPruneThreshold sweeps the support-pruning threshold,
// the design choice §III-B.1 discusses (low threshold: many rules; high:
// fewer, not necessarily better).
func BenchmarkAblationPruneThreshold(b *testing.B) {
	for _, th := range []int{1, 5, 10, 20, 50} {
		th := th
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run("sliding", &core.Sliding{Prune: th}, benchSource(10000), 0)
			}
			reportPolicy(b, last)
			b.ReportMetric(last.RuleCount.Mean(), "rules/op")
		})
	}
}

// BenchmarkAblationTopK sweeps how many consequent neighbors a covered
// query is forwarded to in deployment ("sent to the k neighbors with the
// highest support", §III-B.1).
func BenchmarkAblationTopK(b *testing.B) {
	rng := stats.NewRNG(43)
	g := overlay.GnutellaLike(rng, 600)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	for _, k := range []int{1, 2, 3} {
		k := k
		b.Run(fmt.Sprintf("topk=%d", k), func(b *testing.B) {
			var agg peer.Aggregate
			for i := 0; i < b.N; i++ {
				cfg := routing.DefaultAssocConfig()
				cfg.TopK = k
				e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.NewAssoc(cfg) })
				s := &routing.OneShot{Label: "assoc", E: e, TTL: 7}
				routing.RunWorkload(stats.NewRNG(5), s, e, 6000)
				agg = peer.Summarize(routing.RunWorkload(stats.NewRNG(9), s, e, 800))
			}
			b.ReportMetric(agg.AvgMessages, "msgs/query")
			b.ReportMetric(agg.SuccessRate, "success-rate/op")
		})
	}
}

// BenchmarkRewireAdaptation regenerates the §VI topology-adaptation
// experiment: learned rules propose shortcuts; hops drop.
func BenchmarkRewireAdaptation(b *testing.B) {
	var beforeHops, afterHops, success float64
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(99)
		g := overlay.Random(rng, 600, 3.2)
		model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
		assocs := make([]*routing.Assoc, g.N())
		e := flat.NewEngine(g, model, func(u int) peer.Router {
			assocs[u] = routing.NewAssoc(routing.DefaultAssocConfig())
			return assocs[u]
		})
		s := &routing.OneShot{Label: "assoc", E: e, TTL: 9}
		routing.RunWorkload(stats.NewRNG(1), s, e, 6000)
		before := peer.Summarize(routing.RunWorkload(stats.NewRNG(2), s, e, 800))
		adapt.Rewire(g, func(v, a int) []int32 { return assocs[v].Consequents(a) },
			adapt.Options{MaxNewPerNode: 2, MaxDegree: 12, OnAdd: func(u int, c, w int32) {
				assocs[u].AdoptShortcut(c, w)
				// The engine routes from its own adjacency snapshot.
				e.NeighborsChanged(u, g.Neighbors(u))
				e.NeighborsChanged(int(w), g.Neighbors(int(w)))
			}})
		routing.RunWorkload(stats.NewRNG(3), s, e, 6000)
		after := peer.Summarize(routing.RunWorkload(stats.NewRNG(2), s, e, 800))
		beforeHops, afterHops, success = before.AvgHitHops, after.AvgHitHops, after.SuccessRate
	}
	b.ReportMetric(beforeHops, "hops-before/op")
	b.ReportMetric(afterHops, "hops-after/op")
	b.ReportMetric(success, "success-after/op")
}

// BenchmarkRuleGeneration measures GENERATE-RULESET itself — the paper
// reports "no more than a few seconds" per generation on 2006 hardware.
func BenchmarkRuleGeneration(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 1
	block, _ := tracegen.New(cfg).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GenerateRuleSet(block, 10)
	}
}

// BenchmarkRulesetTest measures RULESET-TEST over a 10,000-pair block.
func BenchmarkRulesetTest(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 2
	gen := tracegen.New(cfg)
	genBlock, _ := gen.Next()
	testBlock, _ := gen.Next()
	rs := core.GenerateRuleSet(genBlock, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Test(testBlock)
	}
}

// BenchmarkWindowMaintenance compares the two ways of keeping a pooled
// window's rule set current as blocks arrive: the pre-engine reference loop
// (re-concatenate the retained blocks and run GENERATE-RULESET from
// scratch, O(width x block) per step) against the delta engine
// (AddBlock/RemoveBlock on a shared core.PairIndex plus a snapshot,
// O(block) per step). Sliding is the width=1 case; Wide is width=4.
func BenchmarkWindowMaintenance(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 12
	gen := tracegen.New(cfg)
	var blocks []trace.Block
	for {
		blk, ok := gen.Next()
		if !ok {
			break
		}
		blocks = append(blocks, append(trace.Block(nil), blk...))
	}
	for _, width := range []int{1, 4} {
		width := width
		b.Run(fmt.Sprintf("rebuild/width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			var window []trace.Block
			for i := 0; i < b.N; i++ {
				window = append(window, blocks[i%len(blocks)])
				if len(window) > width {
					window = window[1:]
				}
				var joined trace.Block
				for _, blk := range window {
					joined = append(joined, blk...)
				}
				core.GenerateRuleSet(joined, 10)
			}
		})
		b.Run(fmt.Sprintf("delta/width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			idx := core.NewPairIndex()
			var ring []core.BlockDelta
			for i := 0; i < b.N; i++ {
				ring = append(ring, idx.AddBlock(blocks[i%len(blocks)]))
				for len(ring) > width {
					idx.RemoveBlock(ring[0])
					ring = ring[1:]
				}
				idx.Snapshot(10)
			}
		})
	}
}

// BenchmarkApriori measures the general association-analysis substrate on
// role-tagged pair transactions (§III-A).
func BenchmarkApriori(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 1
	block, _ := tracegen.New(cfg).Next()
	txs := make([]assoc.Transaction, len(block))
	for i, p := range block {
		txs[i] = assoc.NewItemset(assoc.Item(p.Source), assoc.Item(int32(p.Replier)+1<<16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assoc.Apriori(txs, 10, 2)
	}
}

// BenchmarkTraceGeneration measures the synthetic vantage generator.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 0
	g := tracegen.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextPair()
	}
}

// BenchmarkMinerComparison compares the two frequent-itemset miners of
// internal/assoc on the role-tagged pair corpus; they are cross-checked
// for exact agreement in the assoc tests.
func BenchmarkMinerComparison(b *testing.B) {
	cfg := tracegen.PaperProfile()
	cfg.TotalBlocks = 1
	block, _ := tracegen.New(cfg).Next()
	txs := make([]assoc.Transaction, len(block))
	for i, p := range block {
		txs[i] = assoc.NewItemset(assoc.Item(p.Source), assoc.Item(int32(p.Replier)+1<<16))
	}
	b.Run("apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			assoc.Apriori(txs, 10, 2)
		}
	})
	b.Run("fpgrowth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			assoc.FPGrowth(txs, 10, 2)
		}
	})
}

// BenchmarkSuperPeer measures the §II super-peer baseline [14].
func BenchmarkSuperPeer(b *testing.B) {
	rng := stats.NewRNG(46)
	model := content.Build(rng.Split(), 1000, content.DefaultConfig())
	sp, err := routing.NewSuperPeerNetwork(rng, model, 1000, 25, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(47)
	var agg peer.Aggregate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var all []peer.Stats
		for q := 0; q < 500; q++ {
			origin := r.Intn(1000)
			all = append(all, sp.Search(origin, model.DrawQuery(r, origin)))
		}
		agg = peer.Summarize(all)
	}
	b.ReportMetric(agg.AvgMessages, "msgs/query")
	b.ReportMetric(agg.SuccessRate, "success-rate/op")
}

// BenchmarkAblationExtendedRules compares plain Sliding against the §VI
// rule-generation extensions: confidence pruning and the query-string
// (interest) dimension.
func BenchmarkAblationExtendedRules(b *testing.B) {
	cases := []struct {
		name string
		mk   func() core.Policy
	}{
		{"plain", func() core.Policy { return &core.Sliding{Prune: 10} }},
		{"confidence-0.2", func() core.Policy {
			return &core.SlidingExt{Opts: core.GenOptions{Prune: 10, MinConfidence: 0.2}}
		}},
		{"interest-dimension", func() core.Policy {
			return &core.SlidingExt{Opts: core.GenOptions{Prune: 10, UseInterest: true}}
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run(c.name, c.mk(), benchSource(10000), 0)
			}
			reportPolicy(b, last)
			b.ReportMetric(last.RuleCount.Mean(), "rules/op")
		})
	}
}

// BenchmarkAblationWindowWidth sweeps the generation-window width: the
// paper's policies all regenerate from exactly one block; pooling more
// blocks trades recency for support (§III-B.4's staleness remark).
func BenchmarkAblationWindowWidth(b *testing.B) {
	for _, width := range []int{1, 2, 4} {
		width := width
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run("wide", &core.Wide{Prune: 10, Width: width}, benchSource(10000), 0)
			}
			reportPolicy(b, last)
		})
	}
}

// BenchmarkShockRecovery measures post-shock behaviour per policy (the
// recovery section of cmd/arqbench at reduced scale).
func BenchmarkShockRecovery(b *testing.B) {
	mk := func() trace.Source {
		cfg := tracegen.PaperProfile()
		cfg.TotalBlocks = 41
		cfg.ShockAtBlock = 20
		cfg.ShockFraction = 0.8
		return tracegen.New(cfg)
	}
	cases := []struct {
		name string
		p    func() core.Policy
	}{
		{"sliding", func() core.Policy { return &core.Sliding{Prune: 10} }},
		{"lazy", func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }},
		{"adaptive", func() core.Policy { return &core.Adaptive{Prune: 10, Window: 10, Init: 0.7} }},
		{"incremental", func() core.Policy { return &core.Incremental{} }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run(c.name, c.p(), mk(), 0)
			}
			b.ReportMetric(last.Success.Values[19], "success-at-shock/op")
			b.ReportMetric(last.Success.Tail(15), "success-post/op")
		})
	}
}

// BenchmarkReplication measures how the [5] replication strategies shrink
// expanding-ring search cost over time (internal/replicate).
func BenchmarkReplication(b *testing.B) {
	for _, strat := range []string{"none", "owner", "path"} {
		strat := strat
		b.Run(strat, func(b *testing.B) {
			var lateCost float64
			for i := 0; i < b.N; i++ {
				rng := stats.NewRNG(61)
				g := overlay.Random(rng, 400, 4)
				ccfg := content.DefaultConfig()
				ccfg.Categories = 100
				ccfg.FilesPerNode = 2
				model := content.Build(rng.Split(), 400, ccfg)
				e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
				ring := &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: 9}
				var cache *replicate.Cache
				switch strat {
				case "owner":
					cache = replicate.NewCache(model, replicate.Owner{}, 4, rng.Split())
				case "path":
					cache = replicate.NewCache(model, replicate.Path{}, 4, rng.Split())
				}
				wrng := stats.NewRNG(62)
				const rounds = 600
				var late float64
				for q := 0; q < rounds; q++ {
					origin := wrng.Intn(g.N())
					cat := model.DrawQuery(wrng, origin)
					st := ring.Search(origin, cat)
					if st.Found && cache != nil {
						path := []int{origin}
						for h := 0; h < st.FirstHitHops; h++ {
							path = append(path, wrng.Intn(g.N()))
						}
						// The engine answers hosting from its own
						// snapshot: patch it with what replication moved.
						old := make([][]trace.InterestID, len(path))
						for j, u := range path {
							old[j] = append([]trace.InterestID(nil), model.HostedCategories(u)...)
						}
						cache.OnSuccess(origin, path, cat)
						for j, u := range path {
							e.HostedChanged(u, old[j], model.HostedCategories(u))
						}
					}
					if q >= 2*rounds/3 {
						late += float64(st.Total())
					}
				}
				lateCost = late / (rounds / 3)
			}
			b.ReportMetric(lateCost, "late-msgs/query")
		})
	}
}
