// Process-recovery A/B: the simulation-side drill behind the
// self-healing servent. A strict association-routing overlay is warmed
// once through the paper's two-phase deployment (uncovered nodes drop;
// origins revert missed queries to flooding, which reteaches the rules)
// and measured once before any crash. Three arms are then forked from
// that trained overlay (routing.ForkAssocs), each on its own engine, and
// in each a seeded fraction of nodes "crashes" — each loses its router
// wholesale:
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
// Everything is sequential and seeded: the same Config yields a
// byte-identical format() string (the chaos-smoke CI job diffs two
// runs).
package chaos

import (
	"fmt"
	"strings"

	"arq/internal/core"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
)

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
	Cfg  Config
	Arms []RecoveryArm
}

// RunRecovery measures all three arms. Sequential and deterministic for
// a given cfg; Queries is not read.
func RunRecovery(cfg Config) (*RecoveryResult, error) {
	return newTestbed(cfg).recovery()
}

// recovery warms one strict overlay, measures it before any crash, then
// forks it per arm, crashes per the arm's policy and measures the
// recovery curve.
func (tb *testbed) recovery() (*RecoveryResult, error) {
	cfg := tb.cfg
	acfg := routing.DefaultAssocConfig()
	acfg.Strict = true // paper deployment: drop uncovered, origin reissues
	trained := routing.NewAssocs(cfg.Nodes, acfg)
	e := tb.engine(trained)
	tb.run(e, cfg.Seed+1, cfg.Warm, true)
	pre := tb.window(e, cfg.Seed+2)

	var crashed []int
	crng := stats.NewRNG(cfg.Seed + 3)
	for u := 0; u < cfg.Nodes; u++ {
		if crng.Bool(CrashFrac) {
			crashed = append(crashed, u)
		}
	}

	res := &RecoveryResult{Cfg: cfg}
	for _, name := range []string{"none", "cold", "warm"} {
		arm := RecoveryArm{Name: name, PreSuccess: pre, QueriesToRecover: -1}
		assocs := routing.ForkAssocs(trained)
		if name != "none" {
			arm.Crashed = len(crashed)
			for _, u := range crashed {
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
						return nil, fmt.Errorf("chaos: recovery arm %s: %w", name, err)
					}
					arm.RestoredRules += assocs[u].Restore(snap, discount)
				}
			}
		}
		e := tb.engine(assocs)
		target := pre * (1 - epsilon)
		for w := 0; w < maxWindows; w++ {
			rho := tb.window(e, cfg.Seed+10+uint64(w))
			arm.WindowSuccess = append(arm.WindowSuccess, rho)
			arm.FinalSuccess = rho
			if rho >= target {
				arm.QueriesToRecover = (w + 1) * Window
				break
			}
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// window is ρ over one Window of queries drawn from seed.
func (tb *testbed) window(e *flat.Engine, seed uint64) float64 {
	return float64(tb.run(e, seed, Window, true)) / Window
}

// format renders the A/B deterministically: no timings, floats at fixed
// precision. Identical configs must yield byte-identical output.
func (r *RecoveryResult) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery drill: seed=%d nodes=%d warm=%d ttl=%d crash=%.2f window=%d maxwin=%d eps=%.2f discount=%.2f\n",
		r.Cfg.Seed, r.Cfg.Nodes, r.Cfg.Warm, r.Cfg.TTL, CrashFrac,
		Window, maxWindows, epsilon, discount)
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
