package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// childRunner runs one workload in a process of its own, the way the
// benchmark's driver does, so that no run inherits another's heap, GC pace
// or counters.
type childRunner struct {
	seed    int64
	seconds float64
	out     string
	stderr  io.Writer
}

// run returns the child's result line and its context line. A child that
// failed a check still returns its result, with the error.
func (c childRunner) run(workload string, traced int) (result, string, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced), "--out", c.out)
	cmd.Stderr = c.stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, "", fmt.Errorf("%s: no result line: %v (%v)", workload, err, runErr)
	}
	context := ""
	if len(lines) > 1 {
		context = string(lines[len(lines)-2])
	}
	if runErr != nil {
		return res, context, fmt.Errorf("%s: %w", workload, runErr)
	}
	return res, context, nil
}

func printResult(w io.Writer, workload string, defs []metricDef, res result, context string) {
	fmt.Fprintf(w, "%s\n", context)
	fmt.Fprintf(w, "%-14s attempted %d failed %d correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-40s %16.6g %s\n", workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// allMode runs every workload untraced and then traced, and prints every
// metric by name with its unit.
func allMode(c childRunner, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		for traced, defs := range [][]metricDef{endToEnd, perLayer} {
			res, context, err := c.run(w.name, traced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
			}
			printResult(stdout, w.name, defs, res, context)
		}
	}
	return code
}

// agreeMode runs the untraced set twice and holds every end-to-end metric
// of the second set to the first within the bound BENCHMARK.json gives it.
func agreeMode(c childRunner, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: run from the repository root:", err)
		return 1
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintln(stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	code := 0
	sets := [2]map[string]result{{}, {}}
	for i := range sets {
		for _, w := range workloads {
			res, _, err := c.run(w.name, 0)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
			}
			sets[i][w.name] = res
		}
	}
	fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, m := range decl.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %8.4f %6.2f%s\n", w.name, m.Name, a, b, diff, m.Bound, verdict)
		}
	}
	return code
}
