package chaos

import "testing"

func smallRecovery() Config {
	return Config{Seed: 11, Nodes: 200, Warm: 2000, TTL: 6}
}

// The A/B's reason to exist: a warm restart from codec-round-tripped
// snapshots must recover rule-phase success in measurably fewer queries
// than a cold restart, and the uncrashed control must not dip at all.
func TestRecoveryWarmBeatsCold(t *testing.T) {
	res, err := RunRecovery(smallRecovery())
	if err != nil {
		t.Fatal(err)
	}
	none, cold, warm := res.ArmByName("none"), res.ArmByName("cold"), res.ArmByName("warm")
	if none == nil || cold == nil || warm == nil {
		t.Fatalf("missing arms in %+v", res.Arms)
	}
	if none.Crashed != 0 || none.QueriesToRecover != Window {
		t.Fatalf("control arm crashed %d nodes, recovered at %d queries (want 0, %d)",
			none.Crashed, none.QueriesToRecover, Window)
	}
	if cold.Crashed == 0 || cold.Crashed != warm.Crashed {
		t.Fatalf("crash samples differ across arms: cold %d, warm %d", cold.Crashed, warm.Crashed)
	}
	if warm.RestoredRules == 0 {
		t.Fatal("warm arm restored zero rules")
	}
	if cold.RestoredRules != 0 {
		t.Fatalf("cold arm restored %d rules", cold.RestoredRules)
	}
	if warm.QueriesToRecover < 0 {
		t.Fatalf("warm arm never recovered: windows %v", warm.WindowSuccess)
	}
	// Cold must pay for relearning: either it never recovers within the
	// budget or it takes strictly more queries than warm.
	if cold.QueriesToRecover >= 0 && cold.QueriesToRecover <= warm.QueriesToRecover {
		t.Fatalf("cold recovered in %d queries, warm in %d — checkpointing bought nothing (cold windows %v, warm windows %v)",
			cold.QueriesToRecover, warm.QueriesToRecover, cold.WindowSuccess, warm.WindowSuccess)
	}
	// The crash must actually dent the first post-crash window.
	if cold.WindowSuccess[0] >= cold.PreSuccess {
		t.Fatalf("cold arm did not dip: pre %.3f, first window %.3f", cold.PreSuccess, cold.WindowSuccess[0])
	}
}

// Same config, byte-identical output — the chaos-smoke contract.
func TestRecoveryDeterminism(t *testing.T) {
	cfg := smallRecovery()
	a, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.format() != b.format() {
		t.Fatalf("recovery drill not deterministic:\n%s\nvs\n%s", a.format(), b.format())
	}
}

// ArmByName returns the named arm, or nil.
func (r *RecoveryResult) ArmByName(name string) *RecoveryArm {
	for i := range r.Arms {
		if r.Arms[i].Name == name {
			return &r.Arms[i]
		}
	}
	return nil
}
