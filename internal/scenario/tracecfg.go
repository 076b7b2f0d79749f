package scenario

import "arq/internal/tracegen"

// TraceConfig projects the scenario onto the single-vantage trace
// generator, so the policy harness (sim.Run over tracegen streams) and
// the message-level engines draw from one experiment description: the
// category space, popularity skew, and profile size come from the
// scenario's content config, and the first churn event becomes the
// generator's regime shock. blockSize and totalBlocks pick
// the stream's granularity.
func (s Scenario) TraceConfig(blockSize, totalBlocks int) tracegen.Config {
	cfg := tracegen.PaperProfile()
	cfg.Seed = s.Seed
	cfg.BlockSize = blockSize
	cfg.TotalBlocks = totalBlocks
	if s.Content.Categories > 0 {
		cfg.Interests = s.Content.Categories
	}
	if s.Content.PopularityZipf > 0 {
		cfg.InterestZipf = s.Content.PopularityZipf
	}
	if s.Content.ProfileSize > 0 {
		cfg.ProfileSize = s.Content.ProfileSize
	}
	if s.Dynamics.active() && totalBlocks > 0 {
		// Project the first event's epoch onto the block axis, clamped
		// inside the stream.
		ev := s.Dynamics.Events[0]
		at := ev.Epoch
		if at <= 0 || at >= totalBlocks {
			at = totalBlocks / 2
		}
		if at > 0 {
			cfg.ShockAtBlock = at
			if ev.Frac > 0 {
				cfg.ShockFraction = ev.Frac
			}
		}
	}
	return cfg
}
