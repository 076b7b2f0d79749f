package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"arq/internal/obsv"
	"arq/internal/stats"
)

// metricDef declares one metric the program prints. BENCHMARK.json carries
// the same names plus direction and bound; smoke_test.go pins the two lists
// to each other.
type metricDef struct{ name, unit string }

// endToEnd is printed by every workload of an untraced run. Each name has one
// meaning per workload, tabulated in README.md: an "op" is a query–reply
// pair on policy-trace, a delivered message on overlay-flood, a query on
// overlay-assoc and a search on the mesh workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"fresh_ops_per_s", "1/s"},
	{"cpu_ns_per_op", "ns"},
	{"op_mid_us", "us"},
	{"op_p90_us", "us"},
	{"success_rate", "ratio"},
	{"flood_share", "ratio"},
	{"heap_retained_mb", "MB"},
}

// perLayer is printed by every workload of a traced run; a layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	{"tracegen.block_ns", "ns"},
	{"tracegen.raw_ns_per_query", "ns"},
	{"db.import_ns_per_query", "ns"},
	{"db.import_pairs", "count"},
	{"db.import_dup_guids", "count"},
	{"core.static.step_ns", "ns"},
	{"core.sliding.step_ns", "ns"},
	{"core.lazy.step_ns", "ns"},
	{"core.adaptive.step_ns", "ns"},
	{"core.incremental.step_ns", "ns"},
	{"core.sliding.regens", "count"},
	{"core.lazy.regens", "count"},
	{"core.adaptive.regens", "count"},
	{"core.sliding.coverage", "ratio"},
	{"core.sliding.success", "ratio"},
	{"core.generate_ruleset_ns", "ns"},
	{"core.ruleset_test_ns", "ns"},
	{"core.ruleset_rules", "count"},
	{"core.pairindex.addblock_ns", "ns"},
	{"core.pairindex.removeblock_ns", "ns"},
	{"core.pairindex.snapshot_ns", "ns"},
	{"core.publish.count_per_query", "count"},
	{"core.publish.rules", "count"},
	{"sim.run_overhead_share", "ratio"},
	{"overlay.build_ns_per_node", "ns"},
	{"content.build_ns_per_node", "ns"},
	{"peer.flat.newengine_ns_per_node", "ns"},
	{"peer.flat.query_ns_p50", "ns"},
	{"peer.flat.ns_per_msg", "ns"},
	{"peer.flat.self_ns_per_msg", "ns"},
	{"peer.flat.dup_share", "ratio"},
	{"peer.flat.nodes_reached_per_query", "count"},
	{"peer.flat.heap_bytes_per_node", "B"},
	{"peer.msgs_per_query", "count"},
	{"peer.queries_per_s", "1/s"},
	{"peer.flood_msgs_per_query", "count"},
	{"routing.assoc.route_ns", "ns"},
	{"routing.assoc.route_calls_per_query", "count"},
	{"routing.assoc.observe_ns", "ns"},
	{"routing.assoc.observe_calls_per_query", "count"},
	{"routing.assoc.rule_routed_share", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_count", "count"},
	{"load.offered_qps", "1/s"},
	{"load.achieved_qps", "1/s"},
	{"load.late_p50_us", "us"},
	{"load.late_p99_us", "us"},
	{"load.search_p99_us", "us"},
	{"load.search_p999_us", "us"},
	{"load.inflight_max", "count"},
	{"load.refused", "count"},
	{"load.timeouts", "count"},
	{"load.disturbed", "count"},
	{"vantage.search_svc_p50_us", "us"},
	{"vantage.search_svc_p90_us", "us"},
	{"vantage.msgs_in_per_search", "count"},
	{"vantage.msgs_out_per_search", "count"},
	{"vantage.dup_share", "ratio"},
	{"vantage.hits_routed_per_search", "count"},
	{"vantage.hits_dropped_per_search", "count"},
	{"vantage.cpu_us_per_msg", "us"},
	{"vantage.heap_bytes_per_search", "B"},
	{"transport.hop_rtt_p50_us", "us"},
	{"transport.send_ns", "ns"},
	{"transport.dial_us", "us"},
	{"transport.bytes_out_per_search", "B"},
	{"transport.msgs_out_per_search", "count"},
	{"transport.queue_sheds", "count"},
	{"transport.write_errors", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.query_frame_bytes", "B"},
	{"wire.hit_marshal_ns", "ns"},
	{"wire.hit_unmarshal_ns", "ns"},
	{"wire.hit_frame_bytes", "B"},
	{"keyword.query_ns", "ns"},
	{"keyword.query_broad_ns", "ns"},
	{"stream.dropring.push_pop_ns", "ns"},
	{"host.ref_ns", "ns"},
	{"host.speed", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// quantile is stats.Quantile (linear interpolation between ranks), except
// that an empty slice reads 0: a layer that did nothing reads 0.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Quantile(v, p)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// midMean is the mean of the values between the quartiles: where the middle
// of a distribution lies, for one whose median falls in a gap. A learned
// router's queries come cheap or dear with little between, the median of
// 566 of them sits where the two kinds meet, and over ten query streams it
// moved by 19 % where this moved by 11 % and the quartiles by 7 and 10 %.
func midMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stats.Mean(s[len(s)/4 : len(s)-len(s)/4])
}

// fastest reads, unit by unit, the lowest cost among repetitions of the same
// work: reps[k][i] is what unit i cost in repetition k.
func fastest(reps [][]float64) []float64 {
	out := append([]float64(nil), reps[0]...)
	for _, rep := range reps[1:] {
		for i, c := range rep {
			out[i] = math.Min(out[i], c)
		}
	}
	return out
}

// quietLow is the lower quartile of the latencies a run's slices gave. The
// sandbox this runs in shares its processors, and whatever else runs on
// them only ever makes a slice's searches later, for a fraction of a second
// or for several; the quartile on the quiet side holds still through that
// where the median does not (README.md, "Steadiness").
func quietLow(v []float64) float64 { return quantile(v, 0.25) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a layer that did nothing reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive is HeapAlloc after two forced collections, the second of which
// empties what the first moved to the sync.Pool victim caches: what the
// program retains.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// goStats is the runtime's own account of allocation and collector work;
// the go.* layer metrics are deltas of it over a workload's steady window.
type goStats struct {
	allocBytes  uint64
	gcCount     uint32
	gcCPU       float64
	totalCPU    float64
	hostSamples int // refKernel runs so far, whose garbage is not the workload's
}

func (r *run) readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := goStats{allocBytes: m.TotalAlloc, gcCount: m.NumGC, hostSamples: len(r.hostNs)}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	return g
}

// recordGo writes the go.* layer metrics for the window between a and b.
func (r *run) recordGo(a, b goStats, ops float64) {
	alloc := float64(b.allocBytes-a.allocBytes) - float64(b.hostSamples-a.hostSamples)*refKernelAlloc()
	r.layer["go.alloc_bytes_per_op"] = ratio(alloc, ops)
	r.layer["go.gc_count"] = float64(b.gcCount - a.gcCount)
	r.layer["go.gc_cpu_share"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// counters reads the process-wide obsv counters; the layers record into
// them, and the benchmark reports deltas over its own windows.
func counters() map[string]int64 { return obsv.Default.Snapshot().Counters }

func gauges() map[string]int64 { return obsv.Default.Snapshot().Gauges }

func delta(a, b map[string]int64, name string) float64 { return float64(b[name] - a[name]) }
