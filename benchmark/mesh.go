package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arq/internal/keyword"
	"arq/internal/scenario"
	"arq/internal/vantage"
	"arq/internal/wire"
)

const (
	searchTTL = 7
	// searchTimeout and maxInflight are sized so that the host freezing
	// the whole process, which this shared sandbox does now and then for
	// up to a second, shows as late searches and not as failed ones: at
	// 1 000 arrivals/s a freeze of 0.9 s releases 900 at once.
	searchTimeout = 2 * time.Second
	// maxInflight bounds the searches outstanding at once; an arrival
	// beyond it is refused and counts as failed, so a mesh that cannot
	// keep up shows as failures and not as an unbounded pile of goroutines.
	maxInflight = 4096
	// broadText matches every file of every servent's library.
	broadText = "keywords"
	// warmClients is how many callers warm a new mesh at once: enough to
	// keep both processors busy.
	warmClients = 8
	// traceGroup is how many consecutive arrivals share one tracing
	// state in a traced run: spans on for one group, off for the next.
	traceGroup = 100
	// freshShare is the steady window's length over the fresh phase's.
	freshShare = 20
)

// mesh is one freshly started loopback mesh: servents with the cluster
// plan's libraries, linked ring+chord. The generator opens no sockets of
// its own; every search enters through Servent.Search.
type mesh struct {
	servents []*vantage.Servent
	dialNs   []float64
}

func startMesh(plan scenario.ClusterPlan) (*mesh, error) {
	m := &mesh{}
	for id := 0; id < plan.N; id++ {
		s, err := vantage.Listen("127.0.0.1:0", vantage.Options{})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("mesh: listen: %w", err)
		}
		m.servents = append(m.servents, s)
		for _, f := range plan.Library(id) {
			s.Share(f.Name, f.Size)
		}
	}
	conns := make([]int, plan.N)
	for id, s := range m.servents {
		for _, nb := range plan.Neighbours(id) {
			t0 := time.Now()
			if err := s.ConnectTo(m.servents[nb].Addr()); err != nil {
				m.close()
				return nil, fmt.Errorf("mesh: dial %d->%d: %w", id, nb, err)
			}
			m.dialNs = append(m.dialNs, float64(time.Since(t0)))
			conns[id]++
			conns[nb]++
		}
	}
	// A dial returns before the accepting side has registered the link.
	deadline := time.Now().Add(5 * time.Second)
	for id, s := range m.servents {
		for s.NumConns() < conns[id] {
			if time.Now().After(deadline) {
				m.close()
				return nil, fmt.Errorf("mesh: servent %d has %d of %d links", id, s.NumConns(), conns[id])
			}
			time.Sleep(time.Millisecond)
		}
	}
	return m, nil
}

func (m *mesh) close() {
	for _, s := range m.servents {
		s.Close()
	}
}

// arrival is one pre-drawn search: when it is due after the window opens,
// where it enters the mesh, and what it asks for.
type arrival struct {
	due    time.Duration
	origin int
	text   string
}

// searchOutcome is what the generator saw of one arrival.
type searchOutcome struct {
	dispatch, call, ret time.Time
	launched, ok        bool
}

// hitMatches reports whether every file the hit names contains every token
// of the search text, which is what a servent's library match promises.
func hitMatches(text string, hit *wire.QueryHit) bool {
	if hit == nil || len(hit.Results) == 0 {
		return false
	}
	for _, res := range hit.Results {
		have := map[string]bool{}
		for _, tok := range keyword.Tokenize(res.FileName) {
			have[tok] = true
		}
		for _, tok := range keyword.Tokenize(text) {
			if !have[tok] {
				return false
			}
		}
	}
	return true
}

// openLoop sends the arrivals through the mesh on their schedule: it sleeps
// until each is due and never spins, so the CPU it reads is the mesh's, and
// runs each search in a goroutine of its own. cpuMark holds the process's
// CPU time at slices+1 evenly spaced arrivals, the first and the end among
// them. With a tracer, alternate groups of traceGroup arrivals record spans.
type openLoop struct {
	start       time.Time
	wall        time.Duration
	out         []searchOutcome
	cpuMark     []time.Duration
	inflightMax int64
	bad         int64 // hits that named a file not matching the search text
}

func (m *mesh) openLoop(arrivals []arrival, slices int, tr *tracer) *openLoop {
	n := len(arrivals)
	l := &openLoop{out: make([]searchOutcome, n), cpuMark: make([]time.Duration, 0, slices+1)}
	var inflight, bad atomic.Int64
	var wg sync.WaitGroup
	l.start = time.Now()
	for i, a := range arrivals {
		due := l.start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i == len(l.cpuMark)*n/slices {
			l.cpuMark = append(l.cpuMark, cpuTime())
		}
		o := &l.out[i]
		o.dispatch = time.Now()
		if inflight.Load() >= maxInflight {
			continue
		}
		if now := inflight.Add(1); now > l.inflightMax {
			l.inflightMax = now
		}
		o.launched = true
		on := tr != nil && (i/traceGroup)%2 == 0
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			defer inflight.Add(-1)
			o.call = time.Now()
			hit, err := m.servents[a.origin].Search(a.text, searchTTL, searchTimeout)
			o.ret = time.Now()
			o.ok = err == nil
			if o.ok && !hitMatches(a.text, hit) {
				bad.Add(1)
			}
			if on {
				id := tr.add("search", 0, int64(i), due, o.ret, nil)
				tr.add("load.wait", id, int64(i), due, o.call, nil)
				tr.add("vantage.search", id, int64(i), o.call, o.ret, nil)
			}
		}(i, a)
	}
	wg.Wait()
	l.wall = time.Since(l.start)
	l.cpuMark = append(l.cpuMark, cpuTime())
	l.bad = bad.Load()
	return l
}

// cpu is the processor time the loop's arrivals took.
func (l *openLoop) cpu() time.Duration { return l.cpuMark[len(l.cpuMark)-1] - l.cpuMark[0] }

// answered counts the searches that returned a hit.
func (l *openLoop) answered() int {
	ok := 0
	for _, o := range l.out {
		if o.ok {
			ok++
		}
	}
	return ok
}

// meshWorkload drives an in-process mesh of servents over loopback TCP in
// an open loop: Poisson arrivals at a fixed rate, each timed from the
// moment it was due. With hits false every search is a needle one or two
// servents can answer, so the cost is query fan-out and duplicate
// suppression; with hits true every servent answers every search, so the
// cost is query-hits routed hop by hop along reverse paths.
func meshWorkload(r *run, hits bool) {
	sz := r.sz
	rate, warmN := sz.meshFloodRate, sz.floodWarm
	if hits {
		rate, warmN = sz.meshHitsRate, sz.hitsWarm
	}
	plan := scenario.ClusterPlan{N: sz.servents, Seed: r.seed}
	rng := rand.New(rand.NewSource(r.seed))
	draw := func(due time.Duration) arrival {
		a := arrival{due: due, origin: rng.Intn(plan.N), text: broadText}
		if !hits {
			a.text = plan.SearchString(plan.PickTopic(rng, a.origin))
		}
		return a
	}
	poisson := func(window time.Duration) []arrival {
		var as []arrival
		gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
		for due := gap(); due < window; due += gap() {
			as = append(as, draw(due))
		}
		return as
	}
	warm := make([]arrival, warmN)
	for i := range warm {
		warm[i] = draw(0)
	}
	freshArrivals := poisson(r.window() / freshShare)
	arrivals := poisson(r.window())
	n := len(arrivals)
	heap0 := heapLive()

	// Fresh starts. Set-up is listen, share, dial and the warm searches, a
	// closed loop of warmClients callers that grows the servents' GUID maps
	// to the size they keep through the window. The fresh phase is the
	// first half second of arrivals (a twentieth of --seconds) through the
	// new mesh, at the workload's rate; its rate is searches per second of
	// processor time, since the arrivals set the wall time. The last start
	// continues into the steady window.
	var net *mesh
	var setup, fresh []float64
	var warmFailed, bad atomic.Int64
	for s := 0; s < sz.meshStarts; s++ {
		if net != nil {
			net.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		net, err = startMesh(plan)
		if err != nil {
			r.violate("%v", err)
			return
		}
		var wg sync.WaitGroup
		for c := 0; c < warmClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(warm); i += warmClients {
					hit, err := net.servents[warm[i].origin].Search(warm[i].text, searchTTL, searchTimeout)
					if err != nil {
						warmFailed.Add(1)
					} else if !hitMatches(warm[i].text, hit) {
						bad.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		setup = append(setup, time.Since(t0).Seconds())
		l := net.openLoop(freshArrivals, 1, nil)
		fresh = append(fresh, float64(l.answered())/l.cpu().Seconds())
		r.attempted += int64(len(warm) + len(freshArrivals))
		r.failed += int64(len(freshArrivals) - l.answered())
		bad.Add(l.bad)
	}
	defer net.close()
	r.failed += warmFailed.Load()
	r.e2e["setup_s"] = median(setup)
	r.e2e["fresh_ops_per_s"] = median(fresh)
	r.samples["setup"] = len(setup)
	r.raw["setup_s"], r.raw["fresh_ops_per_s"] = setup, fresh
	r.layer["transport.dial_us"] = median(net.dialNs) / 1e3

	// Steady window, in slices that each give one value of every timed
	// metric.
	const slices = 20
	heapWarm := heapLive()
	c0, go0 := counters(), r.readGoStats()
	l := net.openLoop(arrivals, slices, r.tr)
	start, wall, out, cpuMark := l.start, l.wall, l.out, l.cpuMark
	time.Sleep(20 * time.Millisecond) // let the last floods die out before reading counters
	c1, go1 := counters(), r.readGoStats()

	var lat, svc, late, onLat, offLat []float64
	var ok, refused, timeouts int
	for i, o := range out {
		due := start.Add(arrivals[i].due)
		late = append(late, float64(o.dispatch.Sub(due))/1e3)
		// A refused or timed-out search missed any latency limit: it
		// enters the distribution at no less than the timeout.
		lt := float64(searchTimeout) / 1e3
		switch {
		case !o.launched:
			refused++
		case !o.ok:
			timeouts++
			lt = float64(o.ret.Sub(due)) / 1e3
		default:
			ok++
			lt = float64(o.ret.Sub(due)) / 1e3
			svc = append(svc, float64(o.ret.Sub(o.call))/1e3)
		}
		lat = append(lat, lt)
		if (i/traceGroup)%2 == 0 {
			onLat = append(onLat, lt)
		} else {
			offLat = append(offLat, lt)
		}
	}
	r.attempted += int64(n)
	r.failed += int64(refused + timeouts)
	if b := l.bad + bad.Load(); b > 0 {
		r.violate("%d hits named a file that does not match the search text", b)
	}
	if ok+refused+timeouts != n {
		r.violate("attempted %d != ok %d + refused %d + timed out %d", n, ok, refused, timeouts)
	}

	// Arrivals are sliced in order.
	var sliceCPU, sliceP50, sliceP90 []float64
	for k := 0; k+1 < len(cpuMark); k++ {
		lo, hi := k*n/slices, (k+1)*n/slices
		sliceCPU = append(sliceCPU, ratio(float64(cpuMark[k+1]-cpuMark[k]), float64(hi-lo)))
		sliceP50 = append(sliceP50, quantile(lat[lo:hi], 0.5))
		sliceP90 = append(sliceP90, quantile(lat[lo:hi], 0.9))
	}
	r.raw["cpu_ns_per_op"], r.raw["op_mid_us"], r.raw["op_p90_us"] = sliceCPU, sliceP50, sliceP90
	routed, flooded := delta(c0, c1, "vantage.rule_routed"), delta(c0, c1, "vantage.rule_flood")
	heapEnd := heapLive()
	r.e2e["ops_per_s"] = float64(ok) / wall.Seconds()
	r.e2e["cpu_ns_per_op"] = median(sliceCPU) // a freeze burns no CPU: this noise has two sides
	r.e2e["op_mid_us"] = quietLow(sliceP50)
	r.e2e["op_p90_us"] = quietLow(sliceP90)
	r.e2e["success_rate"] = ratio(float64(ok), float64(n))
	r.e2e["flood_share"] = 1 - ratio(routed, routed+flooded)
	r.e2e["heap_retained_mb"] = (heapEnd - heap0) / 1e6
	r.samples["searches"] = n
	r.samples["wall_ms"] = int(wall.Milliseconds())

	searches := float64(n)
	msgsIn := delta(c0, c1, "vantage.msgs_in")
	r.layer["load.offered_qps"] = searches / r.seconds
	r.layer["load.achieved_qps"] = float64(ok) / wall.Seconds()
	r.layer["load.late_p50_us"] = quantile(late, 0.5)
	r.layer["load.late_p99_us"] = quantile(late, 0.99)
	r.layer["load.search_p99_us"] = quantile(lat, 0.99)
	r.layer["load.search_p999_us"] = quantile(lat, 0.999)
	r.layer["load.inflight_max"] = float64(l.inflightMax)
	r.layer["load.refused"] = float64(refused)
	r.layer["load.timeouts"] = float64(timeouts)
	if r.layer["load.late_p99_us"] > 20000 {
		// The generator itself was held up: the host was busy with
		// something else, and the latencies say so rather than hide it.
		r.disturbed = true
		r.layer["load.disturbed"] = 1
	}
	r.layer["vantage.search_svc_p50_us"] = quantile(svc, 0.5)
	r.layer["vantage.search_svc_p90_us"] = quantile(svc, 0.9)
	r.layer["vantage.msgs_in_per_search"] = msgsIn / searches
	r.layer["vantage.msgs_out_per_search"] = delta(c0, c1, "vantage.msgs_out") / searches
	r.layer["vantage.dup_share"] = ratio(delta(c0, c1, "vantage.dup_queries_dropped"), msgsIn)
	r.layer["vantage.hits_routed_per_search"] = delta(c0, c1, "vantage.hits_routed") / searches
	r.layer["vantage.hits_dropped_per_search"] = delta(c0, c1, "vantage.hits_dropped") / searches
	r.layer["vantage.cpu_us_per_msg"] = ratio(float64(cpuMark[len(cpuMark)-1]-cpuMark[0])/1e3, msgsIn)
	r.layer["vantage.heap_bytes_per_search"] = (heapEnd - heapWarm) / searches
	r.layer["transport.bytes_out_per_search"] = delta(c0, c1, "transport.bytes_out") / searches
	r.layer["transport.msgs_out_per_search"] = delta(c0, c1, "transport.msgs_out") / searches
	r.layer["transport.queue_sheds"] = delta(c0, c1, "transport.queue_sheds")
	r.layer["transport.write_errors"] = delta(c0, c1, "transport.write_errors")
	if sheds, werrs := r.layer["transport.queue_sheds"], r.layer["transport.write_errors"]; sheds != 0 || werrs != 0 {
		r.violate("transport shed %v frames and failed %v writes on an unloaded loopback", sheds, werrs)
	}
	r.recordGo(go0, go1, searches)

	if r.tr != nil {
		if err := probeSocketPath(r, plan, warm[0].text); err != nil {
			r.violate("%v", err)
		}
		r.layer["trace.overhead_share"] = ratio(median(onLat)-median(offLat), median(offLat))
		r.layer["trace.spans"] = float64(r.tr.count())
	}
	runtime.KeepAlive(net)
}
