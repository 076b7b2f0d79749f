package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"arq/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite the policy golden file from the current implementation")

// goldenStep records everything observable about one Policy.Step call. All
// integer counters are compared exactly; coverage/success are derived from
// them, so exact equality here implies byte-identical series.
type goldenStep struct {
	Tested      bool `json:"tested"`
	Regenerated bool `json:"regenerated"`
	Rules       int  `json:"rules"`
	N           int  `json:"n"`
	Covered     int  `json:"covered"`
	Successful  int  `json:"successful"`
}

func goldenPolicies() []struct {
	Name string
	Mk   func() Policy
} {
	return []struct {
		Name string
		Mk   func() Policy
	}{
		{"static", func() Policy { return &Static{Prune: 10} }},
		{"sliding", func() Policy { return &Sliding{Prune: 10} }},
		{"wide3", func() Policy { return &Sliding{Prune: 10, Width: 3} }},
		{"lazy", func() Policy { return &Lazy{Prune: 10, Interval: 10} }},
		{"adaptive", func() Policy { return &Adaptive{Prune: 10, Window: 10, Init: 0.7} }},
		{"incremental", func() Policy { return &Incremental{} }},
	}
}

func goldenSource() *tracegen.Generator {
	cfg := tracegen.PaperProfile()
	cfg.Seed = 7
	cfg.BlockSize = 2000
	cfg.TotalBlocks = 31
	return tracegen.New(cfg)
}

func runGolden(p Policy) []goldenStep {
	src := goldenSource()
	var steps []goldenStep
	for {
		block, ok := src.Next()
		if !ok {
			break
		}
		r := p.Step(block)
		steps = append(steps, goldenStep{
			Tested:      r.Tested,
			Regenerated: r.Regenerated,
			Rules:       r.Rules,
			N:           r.Result.N,
			Covered:     r.Result.Covered,
			Successful:  r.Result.Successful,
		})
	}
	return steps
}

// TestPolicyGoldenSeries pins the exact per-block output of every
// maintenance policy on a fixed seeded trace. The golden file was written
// by the pre-engine implementation (nested-map GenerateRuleSet, private
// Incremental table); the pair-count engine must reproduce it bit for bit.
// Regenerate deliberately with: go test ./internal/core -run Golden -update
func TestPolicyGoldenSeries(t *testing.T) {
	path := filepath.Join("testdata", "policy_golden.json")
	got := make(map[string][]goldenStep)
	for _, pc := range goldenPolicies() {
		got[pc.Name] = runGolden(pc.Mk())
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := make(map[string][]goldenStep)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d policies, run produced %d", len(want), len(got))
	}
	for name, ws := range want {
		gs, ok := got[name]
		if !ok {
			t.Errorf("policy %s missing from run", name)
			continue
		}
		if len(ws) != len(gs) {
			t.Errorf("%s: %d golden steps vs %d run steps", name, len(ws), len(gs))
			continue
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Errorf("%s step %d: got %+v, want %+v", name, i, gs[i], ws[i])
			}
		}
	}
}
