package chaos

import (
	"bytes"
	"os"
	"testing"
)

// testConfig is small enough for CI but large enough that rules learn,
// faults bite, and the staleness bound is crossed.
func testConfig() Config {
	return Config{Seed: 42, Nodes: 120, Warm: 1200, Queries: 250}
}

// The soak is a pure function of its config: identical seeds must yield
// byte-identical formatted output — the contract the CI chaos-smoke job
// diffs across two fresh processes.
func TestSoakDeterministic(t *testing.T) {
	a := Soak(testConfig())
	b := Soak(testConfig())
	if af, bf := a.format(), b.format(); af != bf {
		t.Fatalf("identical seeds produced different soaks:\n--- a ---\n%s--- b ---\n%s", af, bf)
	}
}

// The whole `arqnet -chaos` report for one config, frozen. The file was
// written by the map-based peer.Engine (the commit before the harness
// moved to flat.Engine), so equality here is the end-to-end form of the
// faulted engine golden: same faults, same learning, same counters. The
// CI chaos-smoke job compares the CLI's output against the same file.
func TestSoakGolden(t *testing.T) {
	var got bytes.Buffer
	if err := Report(&got, Config{Seed: 42, Nodes: 150, Warm: 1500, Queries: 300, TTL: 6}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/soak_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("soak report drifted from testdata/soak_golden.txt:\n%s", got.String())
	}
}

// The graceful-degradation claim, measured against its counterfactual:
// with publication stalled under churn and loss, the fallback arm
// actually reverts to flooding (stale_fallbacks fires) and recovers
// more successes than the identically seeded arm that keeps trusting
// its stale rules. A republish brings rule routing back.
func TestSoakFallbackRecoversSuccess(t *testing.T) {
	res := Soak(testConfig())
	faulted := res.PhaseByName("faulted")
	control := res.PhaseByName("nofallback/faulted")
	if faulted == nil || control == nil {
		t.Fatal("missing faulted phases")
	}
	if faulted.CounterDelta("routing.assoc.stale_fallbacks") == 0 {
		t.Fatal("fallback arm never degraded to flooding")
	}
	if control.CounterDelta("routing.assoc.stale_fallbacks") != 0 {
		t.Fatal("control arm used the staleness fallback")
	}
	if faulted.Success <= control.Success {
		t.Fatalf("degrading to flooding did not recover success: fallback ρ=%.4f, control ρ=%.4f",
			faulted.Success, control.Success)
	}
	repub := res.PhaseByName("republished")
	if repub == nil {
		t.Fatal("missing republished phase")
	}
	if repub.RuleShare <= faulted.RuleShare {
		t.Fatalf("republishing did not restore rule routing: α %.4f -> %.4f",
			faulted.RuleShare, repub.RuleShare)
	}
}

// PhaseByName returns the named phase, or nil.
func (r *Result) PhaseByName(name string) *Phase {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}
