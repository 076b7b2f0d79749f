// Package chaos is the fault-injection soak harness: it drives a seeded
// association-routing overlay (flat.Engine + routing.Assoc per node, so
// the drills run at any size the engine does) through a clean / faulted
// / republished phase sequence under a fault.Seeded injector and
// reports, per phase, the success rate ρ, the fraction of routing
// decisions made on learned rules (the coverage share α), and the deltas
// of every fault and degradation counter.
//
// Everything is sequential and seeded, so a soak is a pure function of
// its Config: the same seed yields a byte-identical Result.format()
// string. CI runs the soak twice, diffs the output, and compares it with
// testdata/soak_golden.txt (the chaos-smoke job); TestSoakDeterministic
// and TestSoakGolden pin the same contract in-process.
//
// The phase arc demonstrates graceful degradation end to end. Rule
// publication is stalled (core.PublishEpoch with an unreachable epoch),
// so snapshots refresh only at the explicit publish points: after the
// clean warm-up, and again at the start of the "republished" phase.
// Between those points the learn plane runs ahead of the serve plane,
// and once a node's lag crosses AssocConfig.StaleObs its router reverts
// to flooding. The soak runs every phase twice — once with the
// staleness fallback enabled and once with it disabled ("nofallback/"
// phases) on identically seeded networks — so the ρ recovery bought by
// degrading to flooding is measured against its own counterfactual.
package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/fault"
	"arq/internal/obsv"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

// Config parameterizes one soak run. The zero value of any field takes
// the default noted on it.
type Config struct {
	// Seed drives topology, content, workloads, and the injector.
	Seed uint64
	// Nodes is the overlay size (default 300).
	Nodes int
	// Warm is the clean warm-up query count that teaches the rules
	// (default 3000).
	Warm int
	// Queries is the measured query count per phase (default 500).
	Queries int
	// TTL is the query TTL (default 6).
	TTL int
	// StaleObs is the per-node staleness bound handed to
	// routing.AssocConfig.StaleObs in the fallback arm (default 50).
	StaleObs int
	// Fault configures the injector for the faulted phases. Its Seed is
	// overridden from Config.Seed so one seed pins the whole run. A zero
	// Fault gets a default churn+loss mix.
	Fault fault.Config
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 300
	}
	if c.Warm <= 0 {
		c.Warm = 3000
	}
	if c.Queries <= 0 {
		c.Queries = 500
	}
	if c.TTL <= 0 {
		c.TTL = 6
	}
	if c.StaleObs <= 0 {
		c.StaleObs = 50
	}
	z := fault.Config{}
	if c.Fault == z {
		c.Fault = fault.Config{Drop: 0.15, Crash: 0.15, Slow: 0.1, EpochEvery: 16}
	}
	c.Fault.Seed = c.Seed + 3
	return c
}

// CounterDelta is one counter's change over a phase.
type CounterDelta struct {
	Name  string
	Delta int64
}

// Phase is one measured soak phase.
type Phase struct {
	// Name is "clean", "faulted", or "republished", prefixed with
	// "nofallback/" in the control arm.
	Name string
	// Success is ρ: the fraction of queries whose hit made it home.
	Success float64
	// RuleShare is α: rule-routed decisions over all assoc routing
	// decisions (rule-routed + fallback floods + stale fallbacks).
	RuleShare float64
	// Counters holds the nonzero deltas of the watched instruments
	// (fault.*, routing.assoc.*, peer.queries*), sorted by name.
	Counters []CounterDelta
}

// Result is a full soak: the fallback arm's phases followed by the
// no-fallback control arm's.
type Result struct {
	Cfg    Config
	Phases []Phase
}

// watchedPrefixes are the instrument families a phase reports.
var watchedPrefixes = []string{"fault.", "routing.assoc.", "peer.queries"}

func watched() map[string]int64 {
	out := map[string]int64{}
	snap := obsv.Default.Snapshot()
	for name, v := range snap.Counters {
		for _, p := range watchedPrefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
				break
			}
		}
	}
	return out
}

// Soak runs the full phase sequence on both arms and returns the
// measurements. Sequential and deterministic for a given cfg.
func Soak(cfg Config) Result {
	cfg = cfg.withDefaults()
	res := Result{Cfg: cfg}
	res.Phases = append(res.Phases, runArm("", cfg, cfg.StaleObs)...)
	res.Phases = append(res.Phases, runArm("nofallback/", cfg, 0)...)
	return res
}

// runArm builds one identically seeded network with the given staleness
// bound (0 disables the fallback) and measures the three phases.
func runArm(prefix string, cfg Config, staleObs int) []Phase {
	rng := stats.NewRNG(cfg.Seed)
	g := overlay.GnutellaLike(rng, cfg.Nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	acfg := routing.DefaultAssocConfig()
	acfg.Publish = core.PublishEpoch
	acfg.PublishEvery = 1 << 30 // stalled: snapshots move only on PublishNow
	acfg.StaleObs = staleObs
	assocs := routing.NewAssocs(cfg.Nodes, acfg)
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })
	publish := func() {
		for u := range assocs {
			assocs[u].PublishNow()
		}
	}

	// Clean warm-up teaches the rules; the single publish makes them
	// served — and then publication stays stalled.
	e.Workload(stats.NewRNG(cfg.Seed+1), cfg.Warm, cfg.TTL)
	publish()

	measure := func(name string, wseed uint64) Phase {
		before := watched()
		all := e.Workload(stats.NewRNG(wseed), cfg.Queries, cfg.TTL)
		after := watched()
		p := Phase{Name: prefix + name}
		succ := 0
		for _, s := range all {
			if s.Found {
				succ++
			}
		}
		p.Success = float64(succ) / float64(len(all))
		for cn, v := range after {
			if d := v - before[cn]; d != 0 {
				p.Counters = append(p.Counters, CounterDelta{cn, d})
			}
		}
		sort.Slice(p.Counters, func(i, j int) bool { return p.Counters[i].Name < p.Counters[j].Name })
		delta := func(cn string) int64 { return after[cn] - before[cn] }
		rr := delta("routing.assoc.rule_routed")
		if dec := rr + delta("routing.assoc.fallback_flood") + delta("routing.assoc.stale_fallbacks"); dec > 0 {
			p.RuleShare = float64(rr) / float64(dec)
		}
		return p
	}

	var phases []Phase
	phases = append(phases, measure("clean", cfg.Seed+10))

	// Churn + loss switch on; publication is still stalled, so in the
	// fallback arm the growing lag degrades routing to flooding.
	e.Fault = fault.NewSeeded(cfg.Fault)
	phases = append(phases, measure("faulted", cfg.Seed+11))

	// Republish under continuing faults: the serve plane catches up and
	// rule routing resumes.
	publish()
	phases = append(phases, measure("republished", cfg.Seed+12))
	return phases
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
	fmt.Fprintf(&b, "chaos soak: seed=%d nodes=%d warm=%d queries=%d ttl=%d staleobs=%d drop=%.2f crash=%.2f slow=%.2f\n",
		r.Cfg.Seed, r.Cfg.Nodes, r.Cfg.Warm, r.Cfg.Queries, r.Cfg.TTL, r.Cfg.StaleObs,
		r.Cfg.Fault.Drop, r.Cfg.Fault.Crash, r.Cfg.Fault.Slow)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %-22s success=%.4f rule_share=%.4f\n", p.Name, p.Success, p.RuleShare)
		for _, c := range p.Counters {
			fmt.Fprintf(&b, "  %-40s %+d\n", c.Name, c.Delta)
		}
	}
	return b.String()
}

// Report runs the whole drill `arqnet -chaos` prints — the soak and the
// process-recovery A/B at the soak's seed, size, warm-up and TTL —
// writing each part to w as it completes. The bytes are a pure function
// of cfg; testdata/soak_golden.txt freezes them for one config.
func Report(w io.Writer, cfg Config) error {
	res := Soak(cfg)
	fmt.Fprint(w, res.format())
	rec, err := RunRecovery(RecoveryConfig{Seed: cfg.Seed, Nodes: cfg.Nodes, Warm: cfg.Warm, TTL: cfg.TTL})
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, rec.format())
	return err
}
