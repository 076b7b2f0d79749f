// Command benchmark is the repository's performance benchmark: five
// workloads, from the paper's trace-driven policies to a loopback socket
// mesh, each measured end to end with tracing off and layer by layer with
// tracing on. BENCHMARK.json at the repository root declares the workloads
// and metrics; README.md says what each one means.
//
//	bash benchmark/run.sh --workload mesh-flood --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1      # every workload, untraced then traced
//	bash benchmark/run.sh --agree       # the untraced set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// sizes are the input sizes of the workloads. full is what BENCHMARK.json
// measures; toy lets smoke_test.go run every code path in seconds. Each
// workload makes several fresh starts (set-up, then a fresh phase of fixed
// size) and measures a steady window of --seconds, whose work is drawn
// before its timer starts: arrivals at a rate, or a rate times --seconds
// queries, where the rate is what the reference host completes per second.
// README.md, "How a run is laid out", has each workload's.
type sizes struct {
	blocks, blockSize, rawQueries, policyStarts int     // policy-trace
	floodNodes, floodFresh, floodStarts         int     // overlay-flood
	assocNodes, assocFresh, assocStarts         int     // overlay-assoc
	servents, floodWarm, hitsWarm, meshStarts   int     // mesh-*
	floodRate, assocRate                        float64 // queries per second
	meshFloodRate, meshHitsRate                 float64 // arrivals per second
	probeIters                                  int
}

var full = sizes{
	blocks: 366, blockSize: 10000, rawQueries: 500000, policyStarts: 3,
	floodNodes: 100000, floodFresh: 100, floodStarts: 5,
	assocNodes: 5000, assocFresh: 300, assocStarts: 3,
	servents: 16, floodWarm: 2000, hitsWarm: 4000, meshStarts: 6,
	floodRate: 220, assocRate: 170,
	meshFloodRate: 1000, meshHitsRate: 500,
	probeIters: 20000,
}

var toy = sizes{
	blocks: 8, blockSize: 2000, rawQueries: 5000, policyStarts: 2,
	floodNodes: 300, floodFresh: 20, floodStarts: 2,
	assocNodes: 300, assocFresh: 40, assocStarts: 2,
	servents: 4, floodWarm: 40, hitsWarm: 40, meshStarts: 2,
	floodRate: 400, assocRate: 400,
	meshFloodRate: 200, meshHitsRate: 100,
	probeIters: 200,
}

// workloads is the fixed run order; names match BENCHMARK.json.
var workloads = []struct {
	name string
	fn   func(*run)
}{
	{"policy-trace", policyTrace},
	{"overlay-flood", func(r *run) { overlayWorkload(r, "flood") }},
	{"overlay-assoc", func(r *run) { overlayWorkload(r, "assoc") }},
	{"mesh-flood", func(r *run) { meshWorkload(r, false) }},
	{"mesh-hits", func(r *run) { meshWorkload(r, true) }},
}

// run is one workload run: its inputs, and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	tr       *tracer // nil when tracing is off

	e2e, layer        map[string]float64
	attempted, failed int64
	samples           map[string]int
	raw               map[string][]float64 // the values behind each median, for reading a run's own scatter
	hostNs            []float64            // refKernel's times over the run (host.go)
	measured          map[string]float64   // timed metrics before atReferenceSpeed rescaled them
	violations        []string
	disturbed         bool
	start             time.Time
}

func newRun(workload string, seed int64, seconds float64, traced bool, sz sizes) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, sz: sz,
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
		raw: map[string][]float64{}, measured: map[string]float64{},
		start: time.Now(),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// window is the length of the steady window.
func (r *run) window() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// violate records a failed output check; the run then reports correct=false.
func (r *run) violate(format string, a ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, a...))
}

// context is the host shape and sample counts a reader needs beside the
// numbers. Traffic never leaves the host: the mesh runs over loopback.
func (r *run) context() map[string]any {
	return map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "traced": r.tr != nil,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"network": "loopback", "samples": r.samples, "wall_s": time.Since(r.start).Seconds(),
		"disturbed": r.disturbed, "violations": r.violations, "raw": r.raw,
		"host_speed": r.hostSpeed(), "measured": r.measured,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, as the benchmark contract
// fixes it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result checks the measured values themselves (every declared metric
// finite, end-to-end ones measured and positive) and renders the
// contract's result: end-to-end metrics untraced, layer metrics traced.
func (r *run) result() result {
	defs, vals := endToEnd, r.e2e
	if r.tr != nil {
		defs, vals = perLayer, r.layer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (r.tr == nil && v <= 0) {
			r.violate("%s: bad value %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		r.violate("nothing attempted")
	}
	res.Correct = len(r.violations) == 0
	return res
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the steady window")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	agree := fs.Bool("agree", false, "run the untraced set twice and compare against the bounds")
	out := fs.String("out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	child := childRunner{seed: *seed, seconds: *seconds, out: *out, stderr: stderr}
	switch {
	case *agree:
		return agreeMode(child, stdout, stderr)
	case *workload == "":
		return allMode(child, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		r := newRun(w.name, *seed, *seconds, *traced == 1, full)
		w.fn(r)
		return r.finish(*out, stdout, stderr)
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
	return 2
}

// finish writes the trace file, prints the context line and the result line,
// and maps a failed check to a non-zero exit.
func (r *run) finish(outDir string, stdout, stderr io.Writer) int {
	res := r.result()
	if r.tr != nil {
		if err := r.tr.write(outDir, r.workload, r.context()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, v := range r.violations {
		fmt.Fprintln(stderr, "benchmark: check failed:", v)
	}
	ctx, _ := json.Marshal(r.context()) // plain maps, strings and numbers: cannot fail
	fmt.Fprintf(stdout, "# context %s\n", ctx)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
