package chaos

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// testConfig is small enough for CI but large enough that rules learn and
// faults bite.
func testConfig() Config {
	return Config{Seed: 42, Nodes: 120, Warm: 1200, Queries: 250, TTL: 6}
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
// written by the map-based oracle engine (the commit before the harness
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

// What the soak claims: faults fire only once they are switched on, and
// under them the routers keep routing on rules and keep learning from the
// hits that still come home.
func TestSoakRulesServeUnderFaults(t *testing.T) {
	res := Soak(testConfig())
	clean, faulted := res.PhaseByName("clean"), res.PhaseByName("faulted")
	if clean == nil || faulted == nil {
		t.Fatal("missing phases")
	}
	for _, c := range clean.Counters {
		if strings.HasPrefix(c.Name, "fault.") {
			t.Errorf("clean phase moved %s by %+d", c.Name, c.Delta)
		}
	}
	for _, name := range []string{"fault.msg_drops", "fault.down_drops", "routing.assoc.rule_routed", "routing.assoc.hits_observed"} {
		if d := faulted.CounterDelta(name); d <= 0 {
			t.Errorf("faulted phase moved %s by %+d, want > 0", name, d)
		}
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
