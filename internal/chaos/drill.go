package chaos

import (
	"sort"

	"arq/internal/obsv"
	"arq/internal/stats"
	"arq/internal/stream"
)

// Shed-drill instruments: a deterministic, single-goroutine exercise of
// every stream.DropRing shedding policy. The sheds of a live transport
// outbox depend on goroutine scheduling and socket timing and are
// outside the determinism contract; this drill is the seeded,
// reproducible stand-in the chaos smoke test diffs.
var (
	mDrillOps             = obsv.GetCounter("chaos.drill.ops")
	mDrillEvictions       = obsv.GetCounter("chaos.drill.evictions")
	mDrillRejects         = obsv.GetCounter("chaos.drill.rejects")
	mDrillDeadlineRejects = obsv.GetCounter("chaos.drill.deadline_rejects")
	mDrillPops            = obsv.GetCounter("chaos.drill.pops")
)

// shedDrill drives a seeded op mix (drop-oldest pushes, drop-newest
// pushes, zero-deadline pushes, pops) through one small DropRing on a
// single goroutine and returns the sorted chaos.drill.* counter deltas.
// Same seed and ops, same deltas — byte for byte.
func shedDrill(seed uint64, ops int) []CounterDelta {
	if ops <= 0 {
		ops = 4096
	}
	before := map[string]int64{
		"chaos.drill.ops":              mDrillOps.Value(),
		"chaos.drill.evictions":        mDrillEvictions.Value(),
		"chaos.drill.rejects":          mDrillRejects.Value(),
		"chaos.drill.deadline_rejects": mDrillDeadlineRejects.Value(),
		"chaos.drill.pops":             mDrillPops.Value(),
	}
	r := stream.NewDropRing[int](8)
	rng := stats.NewRNG(seed)
	for i := 0; i < ops; i++ {
		mDrillOps.Inc()
		switch rng.Intn(5) {
		case 0, 1: // bias toward filling so every policy actually sheds
			if _, evicted := r.PushEvict(i); evicted {
				mDrillEvictions.Inc()
			}
		case 2:
			if !r.PushReject(i) {
				mDrillRejects.Inc()
			}
		case 3:
			// A zero deadline is an immediate, deterministic reject when
			// full — no timers involved.
			if !r.PushDeadline(i, 0) {
				mDrillDeadlineRejects.Inc()
			}
		case 4:
			if _, ok := r.TryPop(); ok {
				mDrillPops.Inc()
			}
		}
	}
	r.Close()
	for {
		if _, ok := r.TryPop(); !ok {
			break
		}
		mDrillPops.Inc()
	}
	out := []CounterDelta{
		{"chaos.drill.ops", mDrillOps.Value() - before["chaos.drill.ops"]},
		{"chaos.drill.evictions", mDrillEvictions.Value() - before["chaos.drill.evictions"]},
		{"chaos.drill.rejects", mDrillRejects.Value() - before["chaos.drill.rejects"]},
		{"chaos.drill.deadline_rejects", mDrillDeadlineRejects.Value() - before["chaos.drill.deadline_rejects"]},
		{"chaos.drill.pops", mDrillPops.Value() - before["chaos.drill.pops"]},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
