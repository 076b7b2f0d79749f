// Package chaos is the fault-injection soak harness: it drives a seeded
// association-routing overlay (flat.Engine + routing.Assoc per node, so
// the drills run at any size the engine does) through a clean / faulted
// phase sequence under a fault.Seeded injector and reports, per phase,
// the success rate ρ, the fraction of routing decisions made on learned
// rules (the coverage share α), and the deltas of every fault and routing
// counter.
//
// Everything is sequential and seeded, so a soak is a pure function of
// its Config: the same seed yields a byte-identical Result.format()
// string. CI runs the soak twice, diffs the output, and compares it with
// testdata/soak_golden.txt (the chaos-smoke job); TestSoakDeterministic
// and TestSoakGolden pin the same contract in-process.
//
// The soak runs the router as deployed (routing.DefaultAssocConfig): every
// hit publishes what routing reads, so the rules a node serves are the
// rules it learned, under faults as before them. Its fallback is the
// paper's: a query no rule covers floods (routing.assoc.fallback_flood).
// The faulted phase measures what churn and loss cost a router that keeps
// serving and learning through them.
package chaos

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"arq/internal/content"
	"arq/internal/fault"
	"arq/internal/obsv"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

// Config parameterizes one drill, the soak and the restart A/B alike.
// Every field is required and must be positive: there are no defaults.
type Config struct {
	// Seed drives topology, content, workloads, the injector and the
	// crash sample.
	Seed uint64
	// Nodes is the overlay size.
	Nodes int
	// Warm is the warm-up query count that teaches the rules.
	Warm int
	// Queries is the soak's measured query count per phase.
	Queries int
	// TTL is the query TTL.
	TTL int
}

// The settings every drill runs at. The A/B's post-crash loop measures
// ρ over Window queries at a time, for at most maxWindows windows; an arm
// has recovered once ρ ≥ pre·(1−epsilon); CrashFrac of the nodes crash;
// the warm arm restores supports scaled by discount (matching
// vantage.DefaultCheckpointDiscount).
const (
	maxWindows = 30
	epsilon    = 0.1
	discount   = 0.5
	// CrashFrac is the fraction of nodes the restart A/B crashes.
	CrashFrac = 0.25
	// Window is the query count the restart A/B measures ρ over.
	Window = 100
)

// faultMix is the soak's faulted phase: churn and loss, seeded from
// Config.Seed+3 so that one seed pins the whole run.
var faultMix = fault.Config{Drop: 0.15, Crash: 0.15, Slow: 0.1, EpochEvery: 16}

// testbed is what both drills of one config run on: the overlay and the
// content model, a pure function of the seed and size that no drill
// changes, built once.
type testbed struct {
	cfg   Config
	g     *overlay.Graph
	model *content.Model
}

func newTestbed(cfg Config) *testbed {
	rng := stats.NewRNG(cfg.Seed)
	g := overlay.GnutellaLike(rng, cfg.Nodes)
	return &testbed{cfg: cfg, g: g, model: content.BuildClustered(rng.Split(), g, content.DefaultConfig())}
}

// engine returns a fresh engine on the testbed, routing through as.
func (tb *testbed) engine(as []routing.Assoc) *flat.Engine {
	return flat.NewEngine(tb.g, tb.model, func(u int) peer.Router { return &as[u] })
}

// run is the origin loop of both drills: n queries drawn from seed, each
// one rule-phase attempt on e and, when strict, a flood reissue on a miss,
// which answers the query and reteaches the rules along its hit path. It
// returns how many queries the first attempt answered.
func (tb *testbed) run(e *flat.Engine, seed uint64, n int, strict bool) (firstFound int) {
	for _, j := range peer.DrawWorkload(stats.NewRNG(seed), tb.model, tb.cfg.Nodes, n) {
		if e.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: tb.cfg.TTL}).Found {
			firstFound++
		} else if strict {
			e.RunQuerySpec(j.Origin, j.Category, peer.QuerySpec{TTL: tb.cfg.TTL, FloodPhase: true})
		}
	}
	return firstFound
}

// CounterDelta is one counter's change over a phase.
type CounterDelta struct {
	Name  string
	Delta int64
}

// Phase is one measured soak phase.
type Phase struct {
	// Name is "clean" or "faulted".
	Name string
	// Success is ρ: the fraction of queries whose hit made it home.
	Success float64
	// RuleShare is α: rule-routed decisions over all assoc routing
	// decisions (rule-routed + fallback floods).
	RuleShare float64
	// Counters holds the nonzero deltas of the watched instruments
	// (fault.*, routing.assoc.*, peer.queries*), sorted by name.
	Counters []CounterDelta
}

// Result is a full soak: its phases in the order they ran, and the
// injector's config the faulted phase ran under.
type Result struct {
	Cfg    Config
	Fault  fault.Config
	Phases []Phase
}

// watchedPrefixes are the instrument families a phase reports.
var watchedPrefixes = []string{"fault.", "routing.assoc.", "peer.queries"}

func watched() map[string]int64 {
	out := map[string]int64{}
	for name, v := range obsv.Default.Snapshot().Counters {
		if slices.ContainsFunc(watchedPrefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			out[name] = v
		}
	}
	return out
}

// Soak runs the phase sequence and returns the measurements. Sequential
// and deterministic for a given cfg.
func Soak(cfg Config) Result {
	return newTestbed(cfg).soak()
}

func (tb *testbed) soak() Result {
	cfg := tb.cfg
	assocs := routing.NewAssocs(cfg.Nodes, routing.DefaultAssocConfig())
	e := tb.engine(assocs)

	// Clean warm-up teaches the rules.
	tb.run(e, cfg.Seed+1, cfg.Warm, false)

	measure := func(name string, wseed uint64) Phase {
		before := watched()
		found := tb.run(e, wseed, cfg.Queries, false)
		after := watched()
		p := Phase{Name: name}
		p.Success = float64(found) / float64(cfg.Queries)
		for cn, v := range after {
			if d := v - before[cn]; d != 0 {
				p.Counters = append(p.Counters, CounterDelta{cn, d})
			}
		}
		sort.Slice(p.Counters, func(i, j int) bool { return p.Counters[i].Name < p.Counters[j].Name })
		delta := func(cn string) int64 { return after[cn] - before[cn] }
		rr := delta("routing.assoc.rule_routed")
		if dec := rr + delta("routing.assoc.fallback_flood"); dec > 0 {
			p.RuleShare = float64(rr) / float64(dec)
		}
		return p
	}

	res := Result{Cfg: cfg, Fault: faultMix}
	res.Fault.Seed = cfg.Seed + 3
	res.Phases = append(res.Phases, measure("clean", cfg.Seed+10))
	// Churn + loss switch on; the routers keep serving and learning.
	e.Fault = fault.NewSeeded(res.Fault)
	res.Phases = append(res.Phases, measure("faulted", cfg.Seed+11))
	return res
}

// CounterDelta returns the named counter's delta in the phase (0 if the
// counter did not move).
func (p *Phase) CounterDelta(name string) int64 {
	for _, c := range p.Counters {
		if c.Name == name {
			return c.Delta
		}
	}
	return 0
}

// format renders the soak deterministically: no timings, no map
// iteration, floats at fixed precision. Identical seeds must yield
// byte-identical output.
func (r *Result) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: seed=%d nodes=%d warm=%d queries=%d ttl=%d drop=%.2f crash=%.2f slow=%.2f\n",
		r.Cfg.Seed, r.Cfg.Nodes, r.Cfg.Warm, r.Cfg.Queries, r.Cfg.TTL,
		r.Fault.Drop, r.Fault.Crash, r.Fault.Slow)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %-7s success=%.4f rule_share=%.4f\n", p.Name, p.Success, p.RuleShare)
		for _, c := range p.Counters {
			fmt.Fprintf(&b, "  %-40s %+d\n", c.Name, c.Delta)
		}
	}
	return b.String()
}

// Report runs the whole drill `arqnet -chaos` prints — the soak and the
// process-recovery A/B on one overlay and content model — writing each
// part to w as it completes. The bytes are a pure function of cfg;
// testdata/soak_golden.txt freezes them for one config.
func Report(w io.Writer, cfg Config) error {
	tb := newTestbed(cfg)
	res := tb.soak()
	fmt.Fprint(w, res.format())
	rec, err := tb.recovery()
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, rec.format())
	return err
}
