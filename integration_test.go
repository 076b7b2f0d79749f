package arq

// End-to-end integration tests across modules: the full §IV pipeline
// (generate raw capture → JSONL round trip → import → block
// source → policy → measures), and the deployment stack (overlay →
// content → engines → routers).
import (
	"bytes"
	"testing"

	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/db"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/sim"
	"arq/internal/stats"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

func TestEndToEndCapturePipeline(t *testing.T) {
	// 1. Capture raw traffic at the vantage node.
	cfg := tracegen.PaperProfile()
	cfg.Seed = 77
	gen := tracegen.New(cfg)
	qs, rs := gen.GenerateRaw(120_000)

	// 2. Serialize the capture and read it back (the on-disk format).
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, q := range qs {
		if err := w.WriteQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rs {
		if err := w.WriteReply(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	qs2, rs2, _, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs2) != len(qs) || len(rs2) != len(rs) {
		t.Fatalf("round trip lost records: %d/%d queries, %d/%d replies",
			len(qs2), len(qs), len(rs2), len(rs))
	}

	// 3. Import: first use of a GUID wins, then join replies on GUID.
	imp, err := db.Import(qs2, rs2)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Stats.DuplicateGUIDs == 0 {
		t.Fatal("capture should contain duplicate GUIDs (misbehaving clients)")
	}
	pairs := imp.PairSlice()
	if len(pairs) != imp.Stats.Pairs || len(pairs) == 0 {
		t.Fatalf("pairs = %d, stats = %+v", len(pairs), imp.Stats)
	}

	// 4. Drive a policy over the imported pairs and check the measures
	// are sane and consistent with the trace's locality.
	src := trace.NewSliceSource(pairs, 5000)
	res := sim.Run("sliding", &core.Sliding{Prune: 5}, src, 0)
	if res.Trials < 4 {
		t.Fatalf("too few trials: %d", res.Trials)
	}
	if res.MeanCoverage() < 0.5 || res.MeanSuccess() < 0.5 {
		t.Fatalf("imported-trace quality too low: α=%.3f ρ=%.3f",
			res.MeanCoverage(), res.MeanSuccess())
	}
}

func TestEndToEndDeployment(t *testing.T) {
	// Overlay + content + learning router on the engine that ships.
	rng := stats.NewRNG(79)
	g := overlay.GnutellaLike(rng, 400)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	e := flat.NewEngine(g, model, func(u int) peer.Router {
		return routing.NewAssoc(routing.DefaultAssocConfig())
	})
	search := &routing.OneShot{Label: "assoc", E: e, TTL: 7}
	routing.RunWorkload(stats.NewRNG(1), search, e, 4000)
	agg := peer.Summarize(routing.RunWorkload(stats.NewRNG(2), search, e, 400))
	if agg.SuccessRate < 0.9 {
		t.Fatalf("deployed success = %.3f", agg.SuccessRate)
	}

	floodE := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
	flood := peer.Summarize(routing.RunWorkload(stats.NewRNG(2),
		&routing.OneShot{Label: "flood", E: floodE, TTL: 7}, floodE, 400))
	if agg.AvgMessages >= flood.AvgMessages {
		t.Fatalf("assoc (%.0f msgs) not cheaper than flooding (%.0f)",
			agg.AvgMessages, flood.AvgMessages)
	}
}

func TestExtensionsImproveSuccess(t *testing.T) {
	// §VI: the interest dimension must raise success over plain sliding
	// on the same trace (topics from one neighbor separate), and
	// confidence pruning must shrink rule sets without collapsing
	// success.
	mkSrc := func() trace.Source {
		cfg := tracegen.PaperProfile()
		cfg.Seed = 80
		cfg.TotalBlocks = 41
		return tracegen.New(cfg)
	}
	plain := sim.Run("plain", &core.Sliding{Prune: 10}, mkSrc(), 0)
	interest := sim.Run("interest", &core.Sliding{Prune: 10, UseInterest: true}, mkSrc(), 0)
	conf := sim.Run("conf", &core.Sliding{Prune: 10, MinConfidence: 0.2}, mkSrc(), 0)

	if interest.MeanSuccess() <= plain.MeanSuccess() {
		t.Fatalf("interest dimension did not raise success: %.3f vs %.3f",
			interest.MeanSuccess(), plain.MeanSuccess())
	}
	if conf.RuleCount.Mean() >= plain.RuleCount.Mean() {
		t.Fatalf("confidence pruning did not shrink rule sets: %.0f vs %.0f",
			conf.RuleCount.Mean(), plain.RuleCount.Mean())
	}
	if conf.MeanSuccess() < plain.MeanSuccess()-0.1 {
		t.Fatalf("confidence pruning collapsed success: %.3f vs %.3f",
			conf.MeanSuccess(), plain.MeanSuccess())
	}
}
