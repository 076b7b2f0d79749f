package flat_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/peer/oracle"
	"arq/internal/routing"
	"arq/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the engine equivalence golden files")

// The golden pins per-query stats for all seven strategies at N=500:
// the flat engine must match the oracle (peer/oracle) exactly, query by query, and
// the committed bytes must be identical across runs and across worker
// counts (strategies processed sequentially or fanned out). Regenerate
// with: go test ./internal/peer/flat -run TestEngineGolden -update
const (
	goldenSeed    = 42
	goldenN       = 500
	goldenTTL     = 7
	goldenWarm    = 1200
	goldenMeasure = 200
)

// qrec is the golden's per-query record — every Stats field.
type qrec struct {
	Found  bool    `json:"found"`
	Hits   int     `json:"hits"`
	FHH    int     `json:"first_hit_hops"`
	QMsgs  int     `json:"query_msgs"`
	HMsgs  int     `json:"hit_msgs"`
	Dups   int     `json:"duplicates"`
	Reach  int     `json:"nodes_reached"`
	HitsAt []int32 `json:"hit_nodes,omitempty"`
}

func toRec(s peer.Stats) qrec {
	return qrec{Found: s.Found, Hits: s.Hits, FHH: s.FirstHitHops,
		QMsgs: s.QueryMessages, HMsgs: s.HitMessages,
		Dups: s.Duplicates, Reach: s.NodesReached, HitsAt: s.HitNodes}
}

// strategy builds one named searcher over a fresh engine produced by mk.
// Each call constructs independent router state, so the same seed yields
// the same behavior whichever engine implementation backs it.
type strategy struct {
	name  string
	build func(mk mkEngine) (routing.Searcher, peer.QueryEngine)
	warm  bool
}

func strategies(g *overlay.Graph, model *content.Model) []strategy {
	return []strategy{
		{"flood", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			e := mk(func(u int) peer.Router { return routing.Flood{} })
			return &routing.OneShot{Label: "flood", E: e, TTL: goldenTTL}, e
		}, false},
		{"expanding-ring", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			e := mk(func(u int) peer.Router { return routing.Flood{} })
			return &routing.ExpandingRing{E: e, Start: 1, Step: 2, Max: goldenTTL}, e
		}, false},
		{"kwalk-16", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			wrng := stats.NewRNG(goldenSeed + 200)
			e := mk(func(u int) peer.Router { return &routing.RandomWalk{K: 16, RNG: wrng.Split()} })
			return &routing.OneShot{Label: "kwalk", E: e, TTL: 64}, e
		}, false},
		{"routing-index", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			idx := routing.BuildRoutingIndices(g, model.HostedCategories, 4, 2)
			e := mk(func(u int) peer.Router { return idx[u] })
			return &routing.OneShot{Label: "ri", E: e, TTL: goldenTTL}, e
		}, false},
		{"interest-shortcuts", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			e := mk(func(u int) peer.Router { return routing.Flood{} })
			return routing.NewShortcuts(e, goldenTTL, 5, 10), e
		}, true},
		{"assoc", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			e := mk(func(u int) peer.Router { return routing.NewAssoc(routing.DefaultAssocConfig()) })
			return &routing.OneShot{Label: "assoc", E: e, TTL: goldenTTL}, e
		}, true},
		{"assoc-two-phase", func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			cfg := routing.DefaultAssocConfig()
			cfg.Strict = true
			e := mk(func(u int) peer.Router { return routing.NewAssoc(cfg) })
			return &routing.AssocTwoPhase{E: e, TTL: goldenTTL}, e
		}, true},
	}
}

// runStrategy drives one strategy's warm-up and measured workload on the
// given engine implementation and returns per-query records.
func runStrategy(st strategy, mk mkEngine) []qrec {
	s, e := st.build(mk)
	if st.warm {
		routing.RunWorkload(stats.NewRNG(goldenSeed+5), s, e, goldenWarm)
	}
	res := routing.RunWorkload(stats.NewRNG(goldenSeed+7), s, e, goldenMeasure)
	out := make([]qrec, len(res))
	for i, r := range res {
		out[i] = toRec(r)
	}
	return out
}

// mkEngine builds one engine for a strategy's router factory.
type mkEngine = func(factory func(u int) peer.Router) peer.QueryEngine

// pairing is one row of an equivalence run: a strategy, the engine whose
// records are the reference (and go into the golden bytes), and the
// engine that must reproduce them query for query.
type pairing struct {
	st       strategy
	ref, got mkEngine
}

// oracleWith builds oracle.Engine and flatWith flat.Engine,
// each engine under its own fault.NewSeeded(*cfg) — or on a perfect
// network when cfg is nil.
func oracleWith(g *overlay.Graph, model *content.Model, cfg *fault.Config) mkEngine {
	return func(f func(u int) peer.Router) peer.QueryEngine {
		e := oracle.NewEngine(g, model, f)
		if cfg != nil {
			e.Fault = fault.NewSeeded(*cfg)
		}
		return e
	}
}

func flatWith(g *overlay.Graph, model *content.Model, cfg *fault.Config) mkEngine {
	return func(f func(u int) peer.Router) peer.QueryEngine {
		e := flat.NewEngine(g, model, f)
		if cfg != nil {
			e.Fault = fault.NewSeeded(*cfg)
		}
		return e
	}
}

// runAll builds the golden overlay, runs every row's strategy on both of
// its engines with the given worker count, asserts equality per query,
// and returns the canonical golden bytes.
func runAll(t *testing.T, workers int, rows func(g *overlay.Graph, model *content.Model) []pairing) []byte {
	t.Helper()
	rng := stats.NewRNG(goldenSeed + 100)
	g := overlay.GnutellaLike(rng, goldenN)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	pairs := rows(g, model)
	recs := make([]struct {
		Name    string `json:"name"`
		Queries []qrec `json:"queries"`
	}, len(pairs))

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p pairing) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ref := runStrategy(p.st, p.ref)
			got := runStrategy(p.st, p.got)
			for q := range ref {
				if !recEqual(ref[q], got[q]) {
					t.Errorf("%s query %d: reference %+v != engine under test %+v", p.st.name, q, ref[q], got[q])
					return
				}
			}
			recs[i].Name = p.st.name
			recs[i].Queries = ref
		}(i, p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	buf, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

func recEqual(a, b qrec) bool {
	if a.Found != b.Found || a.Hits != b.Hits || a.FHH != b.FHH ||
		a.QMsgs != b.QMsgs || a.HMsgs != b.HMsgs || a.Dups != b.Dups ||
		a.Reach != b.Reach || len(a.HitsAt) != len(b.HitsAt) {
		return false
	}
	for i := range a.HitsAt {
		if a.HitsAt[i] != b.HitsAt[i] {
			return false
		}
	}
	return true
}

// checkGolden runs rows at worker counts 1 and 4, requires equal bytes,
// and compares them with (or, under -update, rewrites) the gzipped file.
func checkGolden(t *testing.T, name string, rows func(g *overlay.Graph, model *content.Model) []pairing) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden equivalence run is not short")
	}
	seqRun := runAll(t, 1, rows)
	fanRun := runAll(t, 4, rows)
	if !bytes.Equal(seqRun, fanRun) {
		t.Fatal("golden bytes differ between worker counts 1 and 4")
	}

	// The golden is stored gzipped (the JSON is ~32k lines); comparison
	// happens on the decompressed bytes, and -update rewrites the .gz.
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		// The zero ModTime makes the compressed bytes reproducible.
		if _, err := zw.Write(seqRun); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes compressed, %d raw)", path, buf.Len(), len(seqRun))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("bad gzip golden: %v", err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress golden: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqRun, want) {
		t.Fatalf("%s drifted: got %d bytes, want %d; rerun with -update and inspect the diff", name, len(seqRun), len(want))
	}
}

func TestEngineGolden(t *testing.T) {
	checkGolden(t, "engine_golden.json.gz", func(g *overlay.Graph, model *content.Model) []pairing {
		oracle, fl := oracleWith(g, model, nil), flatWith(g, model, nil)
		var rows []pairing
		for _, st := range strategies(g, model) {
			rows = append(rows, pairing{st, oracle, fl})
		}
		return rows
	})
}

// goldenFaults is the full mix: every fault kind the injector has, with
// delays long enough (MaxDelay > 1, plus slow-peer stalls) that delayed
// copies are overtaken by several later ones.
var goldenFaults = fault.Config{Seed: goldenSeed + 300, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.02,
	Delay: 0.2, MaxDelay: 6, Crash: 0.1, Slow: 0.1, EpochEvery: 16}

// TestEngineFaultedGolden pins fault injection on the production engine
// to the oracle's: all seven strategies, plus top-k for flood and the
// learned router, each engine under its own identically seeded injector,
// must agree per query and with the committed bytes. The last row pins the
// faulted loop against the flood fast path it bypasses: a zero-config
// injector must change nothing versus Fault == nil.
// Regenerate with: go test ./internal/peer/flat -run TestEngineFaultedGolden -update
func TestEngineFaultedGolden(t *testing.T) {
	checkGolden(t, "engine_faulted_golden.json.gz", func(g *overlay.Graph, model *content.Model) []pairing {
		oracle, fl := oracleWith(g, model, &goldenFaults), flatWith(g, model, &goldenFaults)
		var rows []pairing
		for _, st := range strategies(g, model) {
			rows = append(rows, pairing{st, oracle, fl})
		}
		for _, st := range topKStrategies() {
			rows = append(rows, pairing{st, oracle, fl})
		}
		flood := strategies(g, model)[0]
		flood.name = "flood-zero-config-vs-nil"
		return append(rows, pairing{flood, flatWith(g, model, nil), flatWith(g, model, &fault.Config{})})
	})
}

// topKStrategies are the faulted golden's top-k rows, where every hit
// prunes its subtree: a flood, where the budget fills with many copies
// still in flight to absorb, and the learned router.
func topKStrategies() []strategy {
	topK := func(name string, router func(u int) peer.Router, warm bool) strategy {
		return strategy{name, func(mk mkEngine) (routing.Searcher, peer.QueryEngine) {
			e := mk(router)
			return &routing.OneShot{Label: name, E: e, TTL: goldenTTL, TopK: 3}, e
		}, warm}
	}
	return []strategy{
		topK("flood-top3", func(u int) peer.Router { return routing.Flood{} }, false),
		topK("assoc-top3-stop-at-hit", func(u int) peer.Router { return routing.NewAssoc(routing.DefaultAssocConfig()) }, true),
	}
}

// TestZeroFaultsMatchPerfectNetwork pins the faulted loop (runFaulted) to
// the perfect network's (runFrontier, and runFlood for plain flood), the
// two loops the engine keeps: for every strategy of the golden, walkers,
// learners and top-k included, an injector with the zero config must
// give per-query stats equal to Fault == nil, warm-up and all.
func TestZeroFaultsMatchPerfectNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden strategy twice")
	}
	rng := stats.NewRNG(goldenSeed + 100)
	g := overlay.GnutellaLike(rng, goldenN)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	run := func(st strategy, mk mkEngine) []peer.Stats {
		s, e := st.build(mk)
		if st.warm {
			routing.RunWorkload(stats.NewRNG(goldenSeed+5), s, e, goldenWarm)
		}
		return routing.RunWorkload(stats.NewRNG(goldenSeed+7), s, e, goldenMeasure)
	}
	for _, st := range append(strategies(g, model), topKStrategies()...) {
		perfect, zero := run(st, flatWith(g, model, nil)), run(st, flatWith(g, model, &fault.Config{}))
		for q := range perfect {
			if !reflect.DeepEqual(perfect[q], zero[q]) {
				t.Errorf("%s query %d: Fault == nil gives %+v, the zero-config injector %+v", st.name, q, perfect[q], zero[q])
				break
			}
		}
	}
}
