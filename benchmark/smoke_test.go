package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy size, untraced and traced, and holds
// the names and units it prints to the ones BENCHMARK.json declares.
// result() has already refused NaN, Inf and non-positive end-to-end values.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range decl.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		units[1][m.Name] = m.Unit
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		for traced, want := range units {
			r := newRun(w.name, 1, 0.5, traced == 1, toy)
			w.fn(r)
			res := r.result()
			for _, v := range r.violations {
				t.Errorf("%s trace=%d: %s", w.name, traced, v)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: prints %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: bad metric name %q", w.name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: %s [%s] is declared as [%s] (declared: %v)", w.name, traced, name, m.Unit, unit, ok)
				}
			}
			if r.tr != nil {
				if err := r.tr.write(t.TempDir(), w.name, r.context()); err != nil {
					t.Error(err)
				}
			}
		}
	}
}
