package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its processors and their caches
// with other tenants, and for minutes at a time everything that lives in
// cache-resident hash maps, which is most of this repository, runs a fifth
// to a third slower; then it recovers. Twelve consecutive one-minute windows
// read 234→187 ms for 40 floods, 12.4→9.1 ms for ten rule-set builds and
// 223→173 ms for 30 learned-router queries, while a pure integer loop moved
// 5 % and refKernel below moved with them (r = 0.96, 0.96, 0.87). No
// statistic inside a run removes a slow quarter of an hour, so the three
// batch workloads time refKernel between their units of work and report
// their timed metrics at reference speed: what they would have read had
// refKernel taken refNominal. That cut the window-to-window range from
// 1.26, 1.36 and 1.29 to 1.06, 1.15 and 1.16. The mesh workloads are left
// as measured: a search is mostly wake-ups and system calls, and does not
// follow the kernel.

// refNominal is what refKernel takes on the reference host when it is quiet.
const refNominal = 5 * time.Millisecond

var refSink int

// refKernel is a fixed piece of the kind of work the slow spells hit:
// 300 000 increments in a map that grows to 16 384 keys.
func refKernel() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]int, 1024)
	x := uint64(1)
	for i := 0; i < 300000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>50]++
	}
	refSink += len(m)
	return time.Since(t0)
}

// refKernelAlloc is how many bytes one refKernel run allocates, measured
// once, so that go.alloc_bytes_per_op can leave them out.
var refKernelAlloc = sync.OnceValue(func() float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	refKernel()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
})

// sampleHost times refKernel once; workloads call it between units of work,
// outside every timer.
func (r *run) sampleHost() {
	r.hostNs = append(r.hostNs, float64(refKernel()))
}

// hostSpeed is the host's speed over the run relative to the quiet reference
// host: refNominal over the lower quartile of the kernel's times, the same
// quiet side the workloads' own numbers are read from.
func (r *run) hostSpeed() float64 {
	if len(r.hostNs) == 0 {
		return 1
	}
	return float64(refNominal) / quietLow(r.hostNs)
}

// atReferenceSpeed rescales the timed end-to-end metrics from the speed the
// host had to the reference speed, and keeps what was measured for the
// context line.
func (r *run) atReferenceSpeed() {
	speed := r.hostSpeed()
	for name, power := range map[string]float64{
		"setup_s": 1, "cpu_ns_per_op": 1, "op_mid_us": 1, "op_p90_us": 1,
		"ops_per_s": -1, "fresh_ops_per_s": -1,
	} {
		r.measured[name] = r.e2e[name]
		r.e2e[name] *= math.Pow(speed, power)
	}
	r.layer["host.ref_ns"] = quietLow(r.hostNs)
	r.layer["host.speed"] = speed
}
