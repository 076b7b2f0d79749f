// Process-recovery A/B: the simulation-side drill behind the
// self-healing servent. A strict association-routing overlay is warmed
// through the paper's two-phase deployment (uncovered nodes drop;
// origins revert missed queries to flooding, which reteaches the
// rules), then a seeded fraction of nodes "crashes" — each loses its
// router wholesale — under one of three arms on identically seeded
// networks:
//
//	none  – control, nobody crashes;
//	cold  – crashed nodes come back with empty routers and must relearn
//	        everything through flood reissues;
//	warm  – crashed nodes come back restored from their own pre-crash
//	        rule snapshot, round-tripped through the on-disk codec
//	        (Marshal → UnmarshalSnapshot → Restore at discounted
//	        support) exactly as a restarted servent warm-starts.
//
// The headline metric is queries-to-recover: the first post-crash
// window of queries whose first-phase (rule-routed) success ρ is back
// within ε of the pre-crash level. Warm restart must recover in
// measurably fewer queries than cold — that gap is what the checkpoint
// subsystem buys.
//
// Everything is sequential and seeded: the same RecoveryConfig yields a
// byte-identical format() string (the chaos-smoke CI job diffs two
// runs).
package chaos

import (
	"fmt"
	"strings"

	"arq/internal/content"
	"arq/internal/core"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

// The recovery bounds every A/B runs at: the post-crash loop measures at
// most maxWindows windows, an arm has recovered once ρ ≥ pre·(1−epsilon),
// and the warm arm restores supports scaled by discount (matching
// vantage.DefaultCheckpointDiscount).
const (
	maxWindows = 30
	epsilon    = 0.1
	discount   = 0.5
)

// RecoveryConfig parameterizes one recovery A/B run. The zero value of
// any field takes the default noted on it.
type RecoveryConfig struct {
	// Seed drives topology, content, workloads, and the crash sample.
	Seed uint64
	// Nodes is the overlay size (default 300).
	Nodes int
	// Warm is the warm-up query count that teaches the rules through the
	// two-phase loop (default 3000).
	Warm int
	// TTL is the query TTL (default 6).
	TTL int
	// CrashFrac is the fraction of nodes crashed (default 0.25).
	CrashFrac float64
	// Window is the per-window query count over which ρ is measured
	// (default 100).
	Window int
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Nodes <= 0 {
		c.Nodes = 300
	}
	if c.Warm <= 0 {
		c.Warm = 3000
	}
	if c.TTL <= 0 {
		c.TTL = 6
	}
	if c.CrashFrac <= 0 || c.CrashFrac >= 1 {
		c.CrashFrac = 0.25
	}
	if c.Window <= 0 {
		c.Window = 100
	}
	return c
}

// RecoveryArm is one measured arm of the A/B.
type RecoveryArm struct {
	// Name is "none", "cold", or "warm".
	Name string
	// PreSuccess is the pre-crash first-phase success ρ over one window.
	PreSuccess float64
	// WindowSuccess holds post-crash ρ per window, in order, up to and
	// including the recovery window.
	WindowSuccess []float64
	// QueriesToRecover is the headline: queries issued until ρ re-entered
	// the pre·(1−ε) band, or −1 if it never did within maxWindows.
	QueriesToRecover int
	// FinalSuccess is ρ of the last measured window.
	FinalSuccess float64
	// Crashed is how many nodes lost their router.
	Crashed int
	// RestoredRules is the total rule count seeded across crashed nodes
	// (warm arm only).
	RestoredRules int
}

// RecoveryResult is the full A/B: the three arms in none, cold, warm
// order.
type RecoveryResult struct {
	Cfg  RecoveryConfig
	Arms []RecoveryArm
}

// RunRecovery measures all three arms. Sequential and deterministic for
// a given cfg.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg = cfg.withDefaults()
	res := &RecoveryResult{Cfg: cfg}
	for _, name := range []string{"none", "cold", "warm"} {
		arm, err := recoveryArm(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("chaos: recovery arm %s: %w", name, err)
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// recoveryArm builds one identically seeded strict overlay, warms it,
// crashes per the arm's policy, and measures the recovery curve.
func recoveryArm(name string, cfg RecoveryConfig) (RecoveryArm, error) {
	rng := stats.NewRNG(cfg.Seed)
	g := overlay.GnutellaLike(rng, cfg.Nodes)
	model := content.BuildClustered(rng.Split(), g, content.DefaultConfig())

	acfg := routing.DefaultAssocConfig()
	acfg.Strict = true // paper deployment: drop uncovered, origin reissues
	assocs := routing.NewAssocs(cfg.Nodes, acfg)
	e := flat.NewEngine(g, model, func(u int) peer.Router { return &assocs[u] })

	// twoPhase runs the strict deployment's origin-level loop: a rule
	// phase first, and on a miss a flood reissue — which both answers the
	// query and reteaches the rules along the hit path. Returns how many
	// queries the rule phase alone answered.
	twoPhase := func(jobs []peer.WorkloadJob) int {
		phase1 := 0
		for _, j := range jobs {
			if st := e.RunQueryPhase(j.Origin, j.Category, cfg.TTL, false); st.Found {
				phase1++
				continue
			}
			e.RunQueryPhase(j.Origin, j.Category, cfg.TTL, true)
		}
		return phase1
	}
	window := func(seed uint64) float64 {
		jobs := peer.DrawWorkload(stats.NewRNG(seed), model, cfg.Nodes, cfg.Window)
		return float64(twoPhase(jobs)) / float64(cfg.Window)
	}

	twoPhase(peer.DrawWorkload(stats.NewRNG(cfg.Seed+1), model, cfg.Nodes, cfg.Warm))
	arm := RecoveryArm{Name: name, QueriesToRecover: -1}
	arm.PreSuccess = window(cfg.Seed + 2)

	if name != "none" {
		crng := stats.NewRNG(cfg.Seed + 3)
		for u := 0; u < cfg.Nodes; u++ {
			if !crng.Bool(cfg.CrashFrac) {
				continue
			}
			arm.Crashed++
			var blob []byte
			if name == "warm" {
				// The full persistence path, not a pointer handoff: the
				// crashed router's published snapshot through the codec.
				blob = assocs[u].Snapshot().Marshal()
			}
			assocs[u].Reset()
			if name == "warm" {
				snap, err := core.UnmarshalSnapshot(blob)
				if err != nil {
					return arm, err
				}
				arm.RestoredRules += assocs[u].Restore(snap, discount)
			}
			e.RouterReset(u, &assocs[u])
		}
	}

	target := arm.PreSuccess * (1 - epsilon)
	for w := 0; w < maxWindows; w++ {
		rho := window(cfg.Seed + 10 + uint64(w))
		arm.WindowSuccess = append(arm.WindowSuccess, rho)
		arm.FinalSuccess = rho
		if rho >= target {
			arm.QueriesToRecover = (w + 1) * cfg.Window
			break
		}
	}
	return arm, nil
}

// format renders the A/B deterministically: no timings, floats at fixed
// precision. Identical configs must yield byte-identical output.
func (r *RecoveryResult) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery drill: seed=%d nodes=%d warm=%d ttl=%d crash=%.2f window=%d maxwin=%d eps=%.2f discount=%.2f\n",
		r.Cfg.Seed, r.Cfg.Nodes, r.Cfg.Warm, r.Cfg.TTL, r.Cfg.CrashFrac,
		r.Cfg.Window, maxWindows, epsilon, discount)
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "arm %-5s pre=%.4f recover_q=%d final=%.4f crashed=%d restored=%d windows=",
			a.Name, a.PreSuccess, a.QueriesToRecover, a.FinalSuccess, a.Crashed, a.RestoredRules)
		for i, w := range a.WindowSuccess {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.3f", w)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
