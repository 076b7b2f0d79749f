// Command arqbench regenerates every table and figure of the paper's
// evaluation (§IV–V) plus the future-work results (§VI) and this
// repository's deployment experiments, printing the same rows and series
// the paper reports. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
//
// It prints and does nothing else. Every section but scale is
// deterministic given -seed, and the -quick output of those sections is
// pinned byte for byte by testdata/quick_golden.txt (TestQuickGolden);
// performance is measured by benchmark/ against BENCHMARK.json.
//
// Usage:
//
//	arqbench [-trials N] [-seed S] [-markdown] [-section a,b,...] [-quick]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"arq/internal/adapt"
	"arq/internal/chaos"
	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/db"
	"arq/internal/metrics"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/scenario"
	"arq/internal/sim"
	"arq/internal/stats"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

var (
	trials   = flag.Int("trials", 365, "tested blocks per trace-driven run (the paper uses 365)")
	seed     = flag.Uint64("seed", 1, "master seed for all generators")
	markdown = flag.Bool("markdown", false, "emit Markdown tables instead of ASCII")
	section  = flag.String("section", "", "run only the named sections, comma-separated ("+strings.Join(sectionNames(), ", ")+")")
	quick    = flag.Bool("quick", false, "reduced scale for a fast smoke run")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProf  = flag.String("memprofile", "", "write a heap profile taken after all sections to this path")
)

// out is where every section prints; the golden test points it at a
// buffer.
var out io.Writer = os.Stdout

// sections is every section in run order. The deterministic ones come
// first and scale, the one section that prints timings, last.
var sections = []struct {
	name string
	run  func()
}{
	{"policies", policySummary},
	{"fig1", fig1},
	{"fig2", fig2},
	{"fig3", fig3},
	{"fig4", fig4},
	{"static", staticDetail},
	{"import", importPipeline},
	{"grid", grid22},
	{"incremental", incremental},
	{"network", network},
	{"rewire", rewire},
	{"recovery", recovery},
	{"faults", faults},
	{"scenarios", scenarios},
	{"ablations", ablations},
	{"scale", scale},
}

func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// run prints the sections named in spec, comma-separated, in table
// order with a blank line after each; the empty spec means all of them.
// A name that is not a section is an error that lists the ones that are.
func run(spec string) error {
	if spec == "" {
		spec = strings.Join(sectionNames(), ",")
	}
	selected := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		known := false
		for _, s := range sections {
			known = known || s.name == name
		}
		if !known {
			return fmt.Errorf("unknown section %q (sections: %s)", name, strings.Join(sectionNames(), ", "))
		}
		selected[name] = true
	}
	if *quick && *trials > 60 {
		*trials = 60
	}
	for _, s := range sections {
		if selected[s.name] {
			s.run()
			fmt.Fprintln(out)
		}
	}
	return nil
}

func main() {
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arqbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "arqbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arqbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "arqbench:", err)
				os.Exit(1)
			}
		}()
	}
	if err := run(*section); err != nil {
		fmt.Fprintln(os.Stderr, "arqbench:", err)
		os.Exit(2)
	}
}

func emit(t *metrics.Table) {
	if *markdown {
		fmt.Fprintln(out, t.Markdown())
	} else {
		fmt.Fprintln(out, t.String())
	}
}

func source() trace.Source {
	cfg := tracegen.PaperProfile()
	cfg.Seed = *seed
	cfg.TotalBlocks = *trials + 1
	return tracegen.New(cfg)
}

func seriesLine(label string, s *stats.Series) string {
	return fmt.Sprintf("%-22s %s  mean=%.3f", label, s.Sparkline(60), s.Mean())
}

// policySummary reproduces the headline per-policy averages of §V.
func policySummary() {
	specs := []sim.Spec{
		{Name: "static", Policy: func() core.Policy { return &core.Static{Prune: 10} }, Source: source},
		{Name: "sliding", Policy: func() core.Policy { return &core.Sliding{Prune: 10} }, Source: source},
		{Name: "wide (4 blocks)", Policy: func() core.Policy { return &core.Sliding{Prune: 10, Width: core.DefaultWideWidth} }, Source: source},
		{Name: "lazy (10 blocks)", Policy: func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }, Source: source},
		{Name: "adaptive (N=10)", Policy: func() core.Policy { return &core.Adaptive{Prune: 10, Window: 10, Init: 0.7} }, Source: source},
		{Name: "adaptive (N=50)", Policy: func() core.Policy { return &core.Adaptive{Prune: 10, Window: 50, Init: 0.7} }, Source: source},
		{Name: "incremental (§VI)", Policy: func() core.Policy { return &core.Incremental{} }, Source: source},
	}
	t := metrics.NewTable("§V policy summary (paper: static 0.18/<0.02, sliding >0.80/~0.79, lazy 0.59/0.59, adaptive 0.78/0.76, incremental >0.90)",
		"policy", "avg coverage", "avg success", "regens", "blocks/regen")
	for _, r := range sim.Sweep(specs, 0) {
		t.AddRow(r.Name, r.MeanCoverage(), r.MeanSuccess(), r.Regens, fmt.Sprintf("%.2f", r.BlocksPerRegen()))
	}
	emit(t)
}

// fig1 reproduces Figure 1: coverage and success of Sliding Window over
// time.
func fig1() {
	r := sim.Run("sliding", &core.Sliding{Prune: 10}, source(), 0)
	fmt.Fprintln(out, "Fig. 1 — Sliding Window over time (paper: coverage >0.80, success just under 0.79)")
	fmt.Fprintln(out, seriesLine("coverage", r.Coverage))
	fmt.Fprintln(out, seriesLine("success", r.Success))
}

// fig2 reproduces Figure 2: Sliding Window coverage across block sizes,
// plus the prune-threshold sensitivity discussed alongside it.
func fig2() {
	var specs []sim.Spec
	for _, bs := range []int{5000, 10000, 20000, 50000} {
		bs := bs
		specs = append(specs, sim.Spec{
			Name:   fmt.Sprintf("block=%d", bs),
			Policy: func() core.Policy { return &core.Sliding{Prune: 10} },
			Source: func() trace.Source {
				cfg := tracegen.PaperProfile()
				cfg.Seed = *seed
				cfg.BlockSize = bs
				cfg.TotalBlocks = (*trials*10000)/bs + 1
				return tracegen.New(cfg)
			},
		})
	}
	for _, th := range []int{5, 20} {
		th := th
		specs = append(specs, sim.Spec{
			Name:   fmt.Sprintf("block=10000 threshold=%d", th),
			Policy: func() core.Policy { return &core.Sliding{Prune: th} },
			Source: source,
		})
	}
	t := metrics.NewTable("Fig. 2 — Sliding Window vs block size and prune threshold (paper: very similar coverage levels)",
		"configuration", "trials", "avg coverage", "avg success")
	for _, r := range sim.Sweep(specs, 0) {
		t.AddRow(r.Name, r.Trials, r.MeanCoverage(), r.MeanSuccess())
	}
	emit(t)
}

// fig3 reproduces Figure 3: Lazy Sliding Window with each rule set reused
// for 10 blocks.
func fig3() {
	r := sim.Run("lazy", &core.Lazy{Prune: 10, Interval: 10}, source(), 0)
	fmt.Fprintln(out, "Fig. 3 — Lazy Sliding Window over time, rule set reused 10 blocks (paper: avg 0.59/0.59)")
	fmt.Fprintln(out, seriesLine("coverage", r.Coverage))
	fmt.Fprintln(out, seriesLine("success", r.Success))
}

// fig4 reproduces Figure 4: Adaptive Sliding Window with thresholds from
// the previous 10 values, plus the N=50 variant of §V-D.
func fig4() {
	t := metrics.NewTable("Fig. 4 — Adaptive Sliding Window (paper: 0.78/0.76 at one regen per 1.7 blocks; N=50: 0.79/0.76 per 1.9)",
		"window", "avg coverage", "avg success", "blocks/regen")
	for _, w := range []int{10, 50} {
		r := sim.Run(fmt.Sprintf("adaptive-%d", w),
			&core.Adaptive{Prune: 10, Window: w, Init: 0.7}, source(), 0)
		t.AddRow(fmt.Sprintf("previous %d values", w), r.MeanCoverage(), r.MeanSuccess(),
			fmt.Sprintf("%.2f", r.BlocksPerRegen()))
		if w == 10 {
			fmt.Fprintln(out, seriesLine("coverage (N=10)", r.Coverage))
			fmt.Fprintln(out, seriesLine("success  (N=10)", r.Success))
		}
	}
	emit(t)
}

// staticDetail reproduces the §V-A narrative: early quality, the success
// collapse, and the lingering coverage.
func staticDetail() {
	r := sim.Run("static", &core.Static{Prune: 10}, source(), 0)
	fmt.Fprintln(out, "§V-A — Static Ruleset (paper: success ~0 by trial 16 and never recovers; coverage lingers ~0.4; averages 0.18 / <0.02)")
	fmt.Fprintln(out, seriesLine("coverage", r.Coverage))
	fmt.Fprintln(out, seriesLine("success", r.Success))
	t := metrics.NewTable("", "measure", "trials 1-5", "trials 12-20", "last quarter", "overall avg")
	avg := func(vals []float64, lo, hi int) float64 {
		if hi > len(vals) {
			hi = len(vals)
		}
		if lo >= hi {
			return 0
		}
		return stats.Mean(vals[lo:hi])
	}
	n := r.Trials
	t.AddRow("coverage", avg(r.Coverage.Values, 0, 5), avg(r.Coverage.Values, 11, 20),
		r.Coverage.Tail(n/4), r.MeanCoverage())
	t.AddRow("success", avg(r.Success.Values, 0, 5), avg(r.Success.Values, 11, 20),
		r.Success.Tail(n/4), r.MeanSuccess())
	emit(t)
}

// importPipeline reproduces the §IV-A capture-import numbers at reduced
// scale (same ratios; the paper: 10,514,090 queries -> 3,254,274 pairs).
func importPipeline() {
	cfg := tracegen.PaperProfile()
	cfg.Seed = *seed
	g := tracegen.New(cfg)
	n := 500_000
	if *quick {
		n = 100_000
	}
	qs, rs := g.GenerateRaw(n)
	imp, err := db.Import(qs, rs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "import failed:", err)
		os.Exit(1)
	}
	s := imp.Stats
	t := metrics.NewTable("§IV-A import pipeline at 1/21 scale (paper ratios: replies/queries 0.3095, join = one pair per reply to a surviving query)",
		"stage", "count", "ratio to raw queries")
	rat := func(x int) string { return fmt.Sprintf("%.4f", float64(x)/float64(s.RawQueries)) }
	t.AddRow("raw queries", s.RawQueries, rat(s.RawQueries))
	t.AddRow("duplicate GUIDs removed", s.DuplicateGUIDs, rat(s.DuplicateGUIDs))
	t.AddRow("queries kept", s.KeptQueries, rat(s.KeptQueries))
	t.AddRow("raw replies", s.RawReplies, rat(s.RawReplies))
	t.AddRow("replies without query", s.UnmatchedReplies, rat(s.UnmatchedReplies))
	t.AddRow("query-reply pairs", s.Pairs, rat(s.Pairs))
	emit(t)
}

// grid22 reruns the paper's full simulation campaign: 22 configurations
// across the four policies and their parameters (§V ran "a total of 22
// simulations").
func grid22() {
	var specs []sim.Spec
	add := func(name string, p func() core.Policy) {
		specs = append(specs, sim.Spec{Name: name, Policy: p, Source: source})
	}
	addBS := func(name string, p func() core.Policy, bs int) {
		specs = append(specs, sim.Spec{Name: name, Policy: p, Source: func() trace.Source {
			cfg := tracegen.PaperProfile()
			cfg.Seed = *seed
			cfg.BlockSize = bs
			cfg.TotalBlocks = (*trials*10000)/bs + 1
			return tracegen.New(cfg)
		}})
	}
	// Static: block sizes ("additional simulations with varying block
	// sizes yielded very similar results").
	for _, bs := range []int{5000, 10000, 20000, 50000} {
		addBS(fmt.Sprintf("static block=%d", bs),
			func() core.Policy { return &core.Static{Prune: 10} }, bs)
	}
	// Sliding: block sizes x thresholds.
	for _, bs := range []int{5000, 10000, 20000, 50000} {
		addBS(fmt.Sprintf("sliding block=%d", bs),
			func() core.Policy { return &core.Sliding{Prune: 10} }, bs)
	}
	for _, th := range []int{5, 20, 50} {
		th := th
		add(fmt.Sprintf("sliding threshold=%d", th),
			func() core.Policy { return &core.Sliding{Prune: th} })
	}
	// Lazy: intervals and block sizes.
	for _, iv := range []int{5, 10, 20} {
		iv := iv
		add(fmt.Sprintf("lazy interval=%d", iv),
			func() core.Policy { return &core.Lazy{Prune: 10, Interval: iv} })
	}
	for _, bs := range []int{5000, 20000} {
		addBS(fmt.Sprintf("lazy block=%d", bs),
			func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }, bs)
	}
	// Adaptive: windows and thresholds.
	for _, w := range []int{10, 50} {
		w := w
		add(fmt.Sprintf("adaptive window=%d", w),
			func() core.Policy { return &core.Adaptive{Prune: 10, Window: w, Init: 0.7} })
	}
	for _, init := range []float64{0.5, 0.8} {
		init := init
		add(fmt.Sprintf("adaptive init=%.1f", init),
			func() core.Policy { return &core.Adaptive{Prune: 10, Window: 10, Init: init} })
	}
	add("adaptive window=10 threshold=5",
		func() core.Policy { return &core.Adaptive{Prune: 5, Window: 10, Init: 0.7} })
	add("adaptive window=10 threshold=20",
		func() core.Policy { return &core.Adaptive{Prune: 20, Window: 10, Init: 0.7} })

	t := metrics.NewTable(fmt.Sprintf("§V simulation campaign — %d configurations (paper ran 22)", len(specs)),
		"configuration", "trials", "avg coverage", "avg success", "regens")
	for _, r := range sim.Sweep(specs, 0) {
		t.AddRow(r.Name, r.Trials, r.MeanCoverage(), r.MeanSuccess(), r.Regens)
	}
	emit(t)
}

// incremental reproduces the §VI claim for the stream-updated rule sets:
// coverage and success consistently above 90%.
func incremental() {
	r := sim.Run("incremental", &core.Incremental{}, source(), 0)
	fmt.Fprintln(out, "§VI — incremental (stream-updated) rules (paper: consistently above 90%)")
	fmt.Fprintln(out, seriesLine("coverage", r.Coverage))
	fmt.Fprintln(out, seriesLine("success", r.Success))
	above := 0
	for i := range r.Coverage.Values {
		if r.Coverage.Values[i] > 0.9 && r.Success.Values[i] > 0.9 {
			above++
		}
	}
	fmt.Fprintf(out, "blocks with both measures > 0.90: %d/%d\n", above, r.Trials)
}

// recovery measures how each policy responds to a regime shock (80%% of
// the vantage node's neighbors replaced at once, all providers rotated) —
// the failure mode that motivates adaptive maintenance.
func recovery() {
	shockAt := 40
	total := 81
	if *quick {
		shockAt, total = 25, 51
	}
	mk := func() trace.Source {
		cfg := tracegen.PaperProfile()
		cfg.Seed = *seed
		cfg.TotalBlocks = total
		cfg.ShockAtBlock = shockAt
		cfg.ShockFraction = 0.8
		return tracegen.New(cfg)
	}
	specs := []sim.Spec{
		{Name: "static", Policy: func() core.Policy { return &core.Static{Prune: 10} }, Source: mk},
		{Name: "sliding", Policy: func() core.Policy { return &core.Sliding{Prune: 10} }, Source: mk},
		{Name: "lazy (10)", Policy: func() core.Policy { return &core.Lazy{Prune: 10, Interval: 10} }, Source: mk},
		{Name: "adaptive (N=10)", Policy: func() core.Policy { return &core.Adaptive{Prune: 10, Window: 10, Init: 0.7} }, Source: mk},
		{Name: "incremental", Policy: func() core.Policy { return &core.Incremental{} }, Source: mk},
	}
	t := metrics.NewTable(fmt.Sprintf("Regime shock at block %d (80%% of neighbors replaced, all providers rotated)", shockAt),
		"policy", "pre-shock success", "at shock", "blocks to 90% recovery", "post success")
	for _, r := range sim.Sweep(specs, 0) {
		// The warm-up block shifts tested indices down by one.
		si := shockAt - 1
		pre := stats.Mean(r.Success.Values[si-10 : si])
		at := r.Success.Values[si]
		recovered := -1
		for i := si + 1; i < len(r.Success.Values); i++ {
			if r.Success.Values[i] >= 0.9*pre {
				recovered = i - si
				break
			}
		}
		recLabel := "never"
		if recovered > 0 {
			recLabel = fmt.Sprintf("%d", recovered)
		}
		post := stats.Mean(r.Success.Values[si+1:])
		t.AddRow(r.Name, pre, at, recLabel, post)
	}
	emit(t)

	// The process-restart A/B (internal/chaos): a crashed strict-assoc
	// node comes back empty (cold) or restored from its codec-round-
	// tripped rule snapshot (warm); the queries-to-recover gap is what
	// the servent's checkpoint subsystem buys.
	rcfg := chaos.Config{Seed: *seed + 901, Nodes: 300, Warm: 3000, TTL: 6}
	if *quick {
		rcfg.Nodes, rcfg.Warm = 150, 1500
	}
	restartAB("", rcfg)
	if !*quick {
		rcfg.Nodes, rcfg.Warm = largeNodes, largeWarm
		restartAB(largePrefix, rcfg)
	}
}

// largeNodes is the overlay size of the full-mode faults and recovery
// rows that the flat engine's fault injection unlocked: the same drills,
// two orders of magnitude past the 150–300 nodes the map engine ran them
// at. largeWarm teaches it at two queries per node where the small runs
// get ten, because the warm-up floods: it is most of each drill's wall
// time, the soak's one warm-up and the A/B's one, which all three arms
// fork (EXPERIMENTS.md has the cost and what the under-training does to
// ρ).
const (
	largeNodes  = 20000
	largeWarm   = 40000
	largePrefix = "N=20000/"
)

// restartAB runs one process-restart A/B and prints its arms as
// <prefix>restart_<arm>; the wall time goes to stderr, so stdout stays
// deterministic.
func restartAB(prefix string, rcfg chaos.Config) {
	start := time.Now()
	rres, err := chaos.RunRecovery(rcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arqbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "arqbench: restart A/B at %d nodes: %.1fs wall\n", rcfg.Nodes, time.Since(start).Seconds())
	rt := metrics.NewTable(fmt.Sprintf("Process restart A/B — %d nodes, %.0f%% crashed, strict two-phase deployment (ρ = rule-phase success per %d-query window)",
		rcfg.Nodes, 100*chaos.CrashFrac, chaos.Window),
		"arm", "pre-crash ρ", "first window", "queries to recover", "final ρ", "restored rules")
	for _, a := range rres.Arms {
		recLabel := "never"
		if a.QueriesToRecover >= 0 {
			recLabel = fmt.Sprintf("%d", a.QueriesToRecover)
		}
		rt.AddRow(prefix+"restart_"+a.Name, a.PreSuccess, fmt.Sprintf("%.3f", a.WindowSuccess[0]),
			recLabel, fmt.Sprintf("%.3f", a.FinalSuccess), fmt.Sprintf("%d", a.RestoredRules))
	}
	emit(rt)
}

// network runs the message-level deployment comparison (the traffic-
// reduction claim of §I/§III, which the paper argues but does not
// quantify at network level).
func network() {
	n := 2000
	warm, measure := 25000, 3000
	if *quick {
		n, warm, measure = 600, 5000, 800
	}
	rng := stats.NewRNG(*seed + 100)
	g := overlay.GnutellaLike(rng, n)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	const ttl = 7

	type entry struct {
		name     string
		searcher routing.Searcher
		engine   *flat.Engine
		warm     bool
	}
	mk := func(f func(u int) peer.Router) *flat.Engine { return flat.NewEngine(g, model, f) }
	ef := mk(func(u int) peer.Router { return routing.Flood{} })
	er := mk(func(u int) peer.Router { return routing.Flood{} })
	wrng := stats.NewRNG(*seed + 200)
	ew := mk(func(u int) peer.Router { return &routing.RandomWalk{K: 16, RNG: wrng.Split()} })
	assocs := routing.NewAssocs(n, routing.DefaultAssocConfig())
	ea := mk(func(u int) peer.Router { return &assocs[u] })
	strict := routing.DefaultAssocConfig()
	strict.Strict = true
	stricts := routing.NewAssocs(n, strict)
	e2 := mk(func(u int) peer.Router { return &stricts[u] })
	idx := routing.BuildRoutingIndices(g, model.HostedCategories, 4, 2)
	ei := mk(func(u int) peer.Router { return idx[u] })
	es := mk(func(u int) peer.Router { return routing.Flood{} })

	sp, err := routing.NewSuperPeerNetwork(stats.NewRNG(*seed+300), model, n, n/40, 4, ttl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	entries := []entry{
		{"flooding (TTL 7)", &routing.OneShot{Label: "flood", E: ef, TTL: ttl}, ef, false},
		{"expanding ring [5]", &routing.ExpandingRing{E: er, Start: 1, Step: 2, Max: ttl}, er, false},
		{"16-random walks [6]", &routing.OneShot{Label: "kwalk", E: ew, TTL: 1024}, ew, false},
		{"routing indices [10]", &routing.OneShot{Label: "ri", E: ei, TTL: ttl}, ei, false},
		{"interest shortcuts [7]", routing.NewShortcuts(es, ttl, 5, 10), es, true},
		{"super-peer tier [14]", sp, ef, false},
		{"assoc rules (local fallback)", &routing.OneShot{Label: "assoc", E: ea, TTL: ttl}, ea, true},
		{"assoc rules (origin fallback)", &routing.AssocTwoPhase{E: e2, TTL: ttl}, e2, true},
	}
	t := metrics.NewTable(fmt.Sprintf("Deployment comparison — %d-node power-law overlay, clustered interests, %d measured queries after warm-up", n, measure),
		"strategy", "success", "msgs/query", "dup/query", "hit hops", "nodes reached")
	for _, e := range entries {
		if e.warm {
			routing.RunWorkload(stats.NewRNG(*seed+5), e.searcher, e.engine, warm)
		}
		agg := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+7), e.searcher, e.engine, measure))
		t.AddRow(e.name, agg.SuccessRate, fmt.Sprintf("%.0f", agg.AvgMessages),
			fmt.Sprintf("%.0f", agg.AvgDuplicates), fmt.Sprintf("%.2f", agg.AvgHitHops),
			fmt.Sprintf("%.0f", agg.AvgReached))
	}
	emit(t)
}

// scaleRepeats is how many times scale runs a row's measured workload on
// the same engine: one pass of 10 to 30 queries spans a fraction of a
// second, too little to resolve a 10 % change in msgs/sec, so a row
// reports the median pass with the quartiles of all of them.
const scaleRepeats = 9

// scale measures the capacity envelope of the flat engine (peer/flat):
// one flood workload at increasing overlay sizes. Quick mode runs 10k
// nodes (the CI scale-smoke step); the full run adds 100k and 1M, the
// only million-node driver in the repo. ns/msg, msgs/sec, build ns/node
// and heap bytes/node depend on the host, which is why this is the one
// section outside the golden; success and msgs/query are deterministic
// given the seed.
func scale() {
	type cfg struct{ n, nq int }
	rows := []cfg{{10000, 30}}
	if !*quick {
		rows = append(rows, cfg{100000, 20}, cfg{1000000, 10})
	}
	const ttl = 7
	t := metrics.NewTable(fmt.Sprintf("Engine scale envelope — flood workload on a power-law overlay, clustered interests; msgs/sec and ns/msg over %d passes of each row's queries", scaleRepeats),
		"nodes", "msgs/query", "msgs/sec median [q1–q3]", "ns/msg median [q1–q3]", "build ns/node (overlay/content/engine)", "heap bytes/node", "success")
	for _, c := range rows {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		// Build time per node of each stage of the substrate, in
		// scenario.Build's order: overlay, content placement, engine.
		t0 := time.Now()
		rng := stats.NewRNG(*seed + 500)
		g := overlay.GnutellaLike(rng, c.n)
		t1 := time.Now()
		model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
		t2 := time.Now()
		e := flat.NewEngine(g, model, func(u int) peer.Router { return routing.Flood{} })
		t3 := time.Now()
		perNode := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(c.n) }
		build := fmt.Sprintf("%.0f/%.0f/%.0f", perNode(t1.Sub(t0)), perNode(t2.Sub(t1)), perNode(t3.Sub(t2)))
		search := &routing.OneShot{Label: "flood", E: e, TTL: ttl}

		// Two untimed warmup queries (separate RNG, so the measured
		// workload below is unaffected) fault in the engine's arrays
		// and grow its frontier buffers to steady state — the row
		// measures query throughput, not first-touch page faults.
		routing.RunWorkload(stats.NewRNG(*seed+11), search, e, 2)

		// Every pass runs the same queries from the same seed, so it
		// must deliver what the first did, message for message.
		var res []peer.Stats
		totalMsgs := 0
		nsPerMsg, msgsPerSec := make([]float64, scaleRepeats), make([]float64, scaleRepeats)
		for r := range nsPerMsg {
			start := time.Now()
			pass := routing.RunWorkload(stats.NewRNG(*seed+7), search, e, c.nq)
			elapsed := time.Since(start)
			if r == 0 {
				res = pass
				for _, s := range res {
					totalMsgs += s.Total()
				}
			} else if !reflect.DeepEqual(pass, res) {
				fmt.Fprintf(os.Stderr, "arqbench: scale at %d nodes: pass %d of the same queries differs from the first\n", c.n, r+1)
				os.Exit(1)
			}
			nsPerMsg[r] = float64(elapsed.Nanoseconds()) / float64(totalMsgs)
			msgsPerSec[r] = 1e9 / nsPerMsg[r]
		}

		// Retained heap per node: everything the engine keeps alive
		// (the graph, which is the adjacency it reads, content, dedup
		// state) after the workload, settled by a GC so transient
		// per-query garbage doesn't count.
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		heapPerNode := 0.0
		if after.HeapAlloc > before.HeapAlloc {
			heapPerNode = float64(after.HeapAlloc-before.HeapAlloc) / float64(c.n)
		}
		runtime.KeepAlive(e)

		agg := peer.Summarize(res)
		quartiles := func(xs []float64, unit float64, format string) string {
			q := func(p float64) string { return fmt.Sprintf(format, stats.Quantile(xs, p)/unit) }
			return q(0.5) + " [" + q(0.25) + "–" + q(0.75) + "]"
		}
		t.AddRow(c.n, fmt.Sprintf("%.0f", agg.AvgMessages),
			quartiles(msgsPerSec, 1e6, "%.2fM"), quartiles(nsPerMsg, 1, "%.1f"),
			build, fmt.Sprintf("%.0f", heapPerNode), agg.SuccessRate)
	}
	emit(t)
}

// scenarios sweeps the unified scenario grid: every router family of
// the deployment comparison against every preset scenario (static
// baseline, community structure with super-peer hubs and workload
// roles, a free-rider-heavy network, top-k early termination, and
// steady churn), all on the flat struct-of-arrays engine driven through
// scenario.Runner — one workload model for every engine and every
// experiment.
func scenarios() {
	n := 1200
	warm, measure := 5000, 1500
	if *quick {
		n, warm, measure = 300, 1200, 400
	}
	t := metrics.NewTable(fmt.Sprintf("Scenario matrix — %d-node power-law overlay, flat engine, %d measured queries after %d warm-up", n, measure, warm),
		"scenario/strategy", "success", "msgs/query")
	for _, sc := range scenario.Presets(n, *seed) {
		g0, m0 := sc.Build()
		for _, strat := range scenario.Strategies(g0, m0, sc.Query, sc.Seed) {
			// Fresh substrate per cell: the runner mutates the graph and
			// model under churn, and Build is deterministic.
			g, m := sc.Build()
			search, eng, newRouter := strat.Build(func(f func(u int) peer.Router) peer.QueryEngine {
				return flat.NewEngine(g, m, f)
			})
			r := scenario.NewRunner(sc, g, m, eng, search, newRouter)
			r.Block(warm)
			agg := peer.Summarize(r.Block(measure))
			t.AddRow(sc.Name+"/"+strat.Name, agg.SuccessRate, fmt.Sprintf("%.0f", agg.AvgMessages))
		}
	}
	emit(t)
}

// rewire demonstrates the §VI topology adaptation: learned rules propose
// shortcut edges and first-hit hop counts drop.
func rewire() {
	n := 1200
	warm, measure := 15000, 2000
	if *quick {
		n, warm, measure = 500, 4000, 600
	}
	rng := stats.NewRNG(*seed + 300)
	// A sparse uniform overlay: paths are several hops long, so cutting a
	// hop per learned shortcut is visible (on dense power-law overlays
	// most content is already 1-2 hops away).
	g := overlay.Random(rng, n, 3.2)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	assocs := routing.NewAssocs(n, routing.DefaultAssocConfig())
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })
	search := &routing.OneShot{Label: "assoc", E: e, TTL: 9}
	routing.RunWorkload(stats.NewRNG(*seed+8), search, e, warm)
	before := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+9), search, e, measure))

	added := adapt.Rewire(g, func(v, ante int) []int32 { return assocs[v].Consequents(ante) },
		adapt.Options{MaxNewPerNode: 2, MaxDegree: 12, OnAdd: func(u int, consulted, w int32) {
			assocs[u].AdoptShortcut(consulted, w)
		}})
	routing.RunWorkload(stats.NewRNG(*seed+10), search, e, warm) // relearn over the new edges
	after := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+9), search, e, measure))

	t := metrics.NewTable(fmt.Sprintf("§VI topology adaptation — %d shortcut edges added by rule consultation", len(added)),
		"phase", "success", "msgs/query", "hit hops")
	t.AddRow("before rewiring", before.SuccessRate, fmt.Sprintf("%.0f", before.AvgMessages), fmt.Sprintf("%.2f", before.AvgHitHops))
	t.AddRow("after rewiring", after.SuccessRate, fmt.Sprintf("%.0f", after.AvgMessages), fmt.Sprintf("%.2f", after.AvgHitHops))
	emit(t)
}

// faults runs the seeded fault-injection soak (internal/chaos): clean and
// faulted phases of the association-routing overlay as deployed. The rows
// record the success rate ρ, the rule-routed decision share α, and the
// headline fault counters per phase.
func faults() {
	cfg := chaos.Config{Seed: *seed + 900, Nodes: 300, Warm: 3000, Queries: 500, TTL: 6}
	if *quick {
		cfg.Nodes, cfg.Warm, cfg.Queries = 150, 1500, 300
	}
	soak("", cfg)
	if !*quick {
		cfg.Nodes, cfg.Warm = largeNodes, largeWarm
		soak(largePrefix, cfg)
	}
}

// soak runs one chaos soak and prints its phases as <prefix><phase>; the
// wall time goes to stderr, so stdout stays deterministic.
func soak(prefix string, cfg chaos.Config) {
	start := time.Now()
	res := chaos.Soak(cfg)
	fmt.Fprintf(os.Stderr, "arqbench: soak at %d nodes: %.1fs wall\n", cfg.Nodes, time.Since(start).Seconds())
	t := metrics.NewTable(fmt.Sprintf("Fault-injection soak — %d nodes, drop=%.2f crash=%.2f slow=%.2f",
		cfg.Nodes, res.Fault.Drop, res.Fault.Crash, res.Fault.Slow),
		"phase", "success", "rule share", "msg drops", "down drops")
	for _, p := range res.Phases {
		drops := p.CounterDelta("fault.msg_drops")
		down := p.CounterDelta("fault.down_drops")
		t.AddRow(prefix+p.Name, p.Success, fmt.Sprintf("%.3f", p.RuleShare),
			fmt.Sprintf("%d", drops), fmt.Sprintf("%d", down))
	}
	emit(t)
}

// ablations sweeps the design choices DESIGN.md calls out, the source of
// EXPERIMENTS.md's "Extension ablations": the support-pruning threshold
// (§III-B.1), the generation-window width (§III-B.4's staleness remark),
// the §VI rule extensions, and how many consequents a covered query is
// forwarded to in deployment. Sizes are fixed whatever -trials and -quick
// say: the sweeps compare configurations with each other, not with the
// paper's 365-block averages.
func ablations() {
	const blocks = 30
	src := func() trace.Source {
		cfg := tracegen.PaperProfile()
		cfg.Seed = *seed
		cfg.TotalBlocks = blocks + 1
		return tracegen.New(cfg)
	}
	var specs []sim.Spec
	add := func(name string, p func() core.Policy) {
		specs = append(specs, sim.Spec{Name: name, Policy: p, Source: src})
	}
	for _, th := range []int{1, 5, 10, 20, 50} {
		th := th
		add(fmt.Sprintf("prune threshold=%d", th), func() core.Policy { return &core.Sliding{Prune: th} })
	}
	for _, w := range []int{1, 2, 4} {
		w := w
		add(fmt.Sprintf("window width=%d", w), func() core.Policy { return &core.Sliding{Prune: 10, Width: w} })
	}
	add("rules: plain", func() core.Policy { return &core.Sliding{Prune: 10} })
	add("rules: confidence >= 0.2", func() core.Policy { return &core.Sliding{Prune: 10, MinConfidence: 0.2} })
	add("rules: interest dimension", func() core.Policy { return &core.Sliding{Prune: 10, UseInterest: true} })
	t := metrics.NewTable(fmt.Sprintf("Ablations — rule generation, %d tested blocks", blocks),
		"configuration", "avg coverage", "avg success", "regens", "avg rules")
	for _, r := range sim.Sweep(specs, 0) {
		t.AddRow(r.Name, r.MeanCoverage(), r.MeanSuccess(), r.Regens, fmt.Sprintf("%.1f", r.RuleCount.Mean()))
	}
	emit(t)

	const n, ttl, warm, measure = 600, 7, 6000, 800
	rng := stats.NewRNG(*seed + 42)
	g := overlay.GnutellaLike(rng, n)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())
	kt := metrics.NewTable(fmt.Sprintf("Ablations — consequents per covered query, %d-node power-law overlay, %d measured queries after %d warm-up", n, measure, warm),
		"top-k", "success", "msgs/query")
	for _, k := range []int{1, 2, 3} {
		cfg := routing.DefaultAssocConfig()
		cfg.TopK = k
		as := routing.NewAssocs(n, cfg)
		e := flat.NewEngine(g, model, func(u int) peer.Router { return &as[u] })
		s := &routing.OneShot{Label: "assoc", E: e, TTL: ttl}
		routing.RunWorkload(stats.NewRNG(*seed+4), s, e, warm)
		agg := peer.Summarize(routing.RunWorkload(stats.NewRNG(*seed+8), s, e, measure))
		kt.AddRow(k, agg.SuccessRate, fmt.Sprintf("%.1f", agg.AvgMessages))
	}
	emit(kt)
}
