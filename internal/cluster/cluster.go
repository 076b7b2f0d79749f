// Package cluster runs the vantage servent as an N-process localhost
// cluster: one OS process per node, real TCP sockets between them
// (internal/transport), association-rule routing warmed from routed
// hits (internal/vantage), and a file-based rendezvous protocol under a
// shared directory so the processes can find each other and advance in
// lock step without any coordinator socket.
//
// The parent (Run) re-execs its own binary once per node with the
// node's JSON config in the ARQ_CLUSTER_NODE environment variable; a
// hosting command calls ChildMain first thing in main(), which is a
// no-op in the parent and runs the node then exits in a child. Each
// child:
//
//  1. listens on 127.0.0.1:0 and publishes its address as addr.<id>,
//  2. waits for all N addresses, dials its ring+chord neighbours
//     ((i+1)%N and (i+2)%N), and publishes ready.<id>,
//  3. after the ready barrier, floods Warm queries to seed the rule
//     learner on every intermediate node,
//  4. after the warm barrier, issues Queries measured queries and
//     writes per-query latencies plus its transport counters as
//     result.<id>,
//  5. waits for every result file (so its sockets outlive its peers'
//     measurements), closes the servent, verifies its goroutines are
//     reaped, and exits.
//
// Content placement and the query mix are deterministic in (Seed, N):
// topic t of a 4*N-topic universe is owned by nodes t%N and (t+1)%N,
// and each node draws 70% of its queries from topics owned by its ring
// successors (warm paths the learner can narrow) and 30% uniformly.
package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"arq/internal/scenario"
	"arq/internal/transport"
	"arq/internal/vantage"
)

// childEnv is the environment variable carrying a child node's JSON
// config; its presence turns a process into a cluster node.
const childEnv = "ARQ_CLUSTER_NODE"

// The cluster's timings. runTimeout bounds a whole run: on expiry the
// children are killed and Run fails. queryTimeout bounds one query's wait
// for its first hit. restartDelay is how long after the measurement
// barrier the restart drill's kill lands, placing it mid-workload.
const (
	runTimeout   = 2 * time.Minute
	queryTimeout = 2 * time.Second
	restartDelay = 150 * time.Millisecond
)

// NodeConfig is one child process's share of the cluster plan.
type NodeConfig struct {
	ID      int    `json:"id"`
	N       int    `json:"n"`
	Dir     string `json:"dir"` // shared rendezvous directory
	Warm    int    `json:"warm"`
	Queries int    `json:"queries"`
	TTL     int    `json:"ttl"`
	Seed    int64  `json:"seed"`
	// FreeRiderFrac marks that fraction of nodes as sharing nothing
	// (scenario.ClusterPlan.FreeRider); 0 is the historical cluster.
	FreeRiderFrac float64 `json:"free_rider_frac,omitempty"`
	// ListenAddr pins the node to a concrete address instead of
	// 127.0.0.1:0 — how a restarted node comes back where its peers'
	// supervisors are redialing.
	ListenAddr string `json:"listen_addr,omitempty"`
	// CheckpointDir enables rule-snapshot persistence (and warm restart
	// after a crash) under this directory.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// Restarted marks a re-execed incarnation: the warm phase is skipped
	// (its barrier files already exist) and, with a CheckpointDir, the
	// node warm-starts from the latest checkpoint once its links are up.
	Restarted bool `json:"restarted,omitempty"`
	// QueryGapMS paces the measured loop (sleep between queries). On a
	// loopback cluster the whole phase otherwise finishes in tens of
	// milliseconds — the restart drill needs it to still be running when
	// the kill lands.
	QueryGapMS int `json:"query_gap_ms,omitempty"`
}

// plan derives the node's scenario plan; every child computes the same
// plan from its own config, with no coordination.
func (c NodeConfig) plan() scenario.ClusterPlan {
	return scenario.ClusterPlan{N: c.N, Seed: c.Seed, FreeRiderFrac: c.FreeRiderFrac}
}

// NodeResult is what one child reports back through result.<id>.
type NodeResult struct {
	ID          int     `json:"id"`
	Queries     int     `json:"queries"`
	Hits        int     `json:"hits"`
	LatenciesNS []int64 `json:"latencies_ns"` // one per hit query
	DurationNS  int64   `json:"duration_ns"`  // measured phase wall time
	// The servent's transport counters over the measured phase.
	MsgsIn     int64 `json:"msgs_in"`
	MsgsOut    int64 `json:"msgs_out"`
	BytesIn    int64 `json:"bytes_in"`
	BytesOut   int64 `json:"bytes_out"`
	QueueSheds int64 `json:"queue_sheds"`
	// The servent's transport lifecycle counters, since it started.
	Dials        int64 `json:"dials"`
	AcceptErrors int64 `json:"accept_errors"`
	// Reconnects counts supervised redials that re-established a link;
	// RestoredRules is how many rules a warm restart seeded (both 0 on a
	// node that never lost a peer or never restarted).
	Reconnects    int64 `json:"reconnects,omitempty"`
	RestoredRules int   `json:"restored_rules,omitempty"`
	// LeakedGoroutines is how many goroutines remained above the
	// process baseline after the servent closed (0 = clean).
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// Config drives a whole cluster run from the parent.
type Config struct {
	// N is the process count (min 2).
	N int
	// Warm and Queries are per-node query counts for the two phases.
	Warm    int
	Queries int
	// TTL is the query TTL (0 = 7, ample for the ring+chord diameter).
	TTL  int
	Seed int64
	// Dir, when set, is used as the rendezvous directory and kept
	// afterwards (child logs land there as node.<id>.log); "" uses a
	// temp dir removed on success.
	Dir string
	// FreeRiderFrac marks that fraction of nodes as sharing nothing
	// (scenario.ClusterPlan.FreeRider); 0 is the historical cluster.
	FreeRiderFrac float64
	// Restart, when true, runs the kill/restart drill: once every node
	// is measuring, RestartNode is killed, its stale result discarded,
	// and it is re-execed with the same id, listen address, and
	// checkpoint dir; peer supervisors redial it and the run completes
	// with zero manual intervention.
	Restart     bool
	RestartNode int
	// Checkpoint gives every node a checkpoint dir under the rendezvous
	// dir, so a restarted node warm-starts instead of re-learning.
	Checkpoint bool
}

// Result aggregates the cluster run for reporting.
type Result struct {
	Procs       int
	Queries     int
	Hits        int
	SuccessRate float64
	P50NS       int64
	P99NS       int64
	MsgsIn      int64
	MsgsOut     int64
	BytesIn     int64
	BytesOut    int64
	QueueSheds  int64
	Dials       int64
	AcceptErrs  int64
	// MsgsPerSec is cluster-wide inbound frames per second over the
	// measured phase.
	MsgsPerSec       float64
	DurationNS       int64
	LeakedGoroutines int
	Reconnects       int64
	RestoredRules    int
	PerNode          []NodeResult
}

// ChildMain turns this process into a cluster node when childEnv is set
// and never returns in that case; in the parent it is a no-op. Hosting
// commands call it before flag parsing.
func ChildMain() {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return
	}
	var cfg NodeConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cluster node: bad config:", err)
		os.Exit(1)
	}
	if err := runNode(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cluster node:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// awaitFiles blocks until n files named <prefix>.<id> exist under dir —
// the cluster's phase barrier. The deadline turns a dead peer into an
// error instead of a hang.
func awaitFiles(dir, prefix string, n int, deadline time.Time) error {
	for {
		matches, err := filepath.Glob(filepath.Join(dir, prefix+".*"))
		if err != nil {
			return err
		}
		if len(matches) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d %s files after deadline", len(matches), n, prefix)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writeMark(dir, prefix string, id int, body []byte) error {
	tmp := filepath.Join(dir, fmt.Sprintf(".%s.%d.tmp", prefix, id))
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("%s.%d", prefix, id)))
}

func runNode(cfg NodeConfig) error {
	if cfg.TTL <= 0 {
		cfg.TTL = 7
	}
	g0 := runtime.NumGoroutine()
	deadline := time.Now().Add(90 * time.Second)
	listenAddr := "127.0.0.1:0"
	if cfg.ListenAddr != "" {
		listenAddr = cfg.ListenAddr
	}
	opts := vantage.Options{
		Rules: true,
		Net: &transport.Options{
			NodeID:   cfg.ID,
			ReadIdle: 30 * time.Second,
			// Liveness probing catches a silently dead peer in ~2s —
			// detection, not the 30s idle reap, wakes the supervisor.
			HeartbeatEvery: 500 * time.Millisecond,
		},
	}
	if cfg.CheckpointDir != "" {
		// A tight cadence (vs the library default of 16): a SIGKILL'd node
		// never writes the graceful final checkpoint, so the background
		// ones are all a short-lived incarnation leaves behind.
		opts.Checkpoint = &vantage.CheckpointConfig{Dir: cfg.CheckpointDir, EveryVersions: 4}
	}
	s, err := vantage.Listen(listenAddr, opts)
	if err != nil {
		return err
	}
	plan := cfg.plan()
	for _, f := range plan.Library(cfg.ID) {
		s.Share(f.Name, f.Size)
	}
	if err := writeMark(cfg.Dir, "addr", cfg.ID, []byte(s.Addr())); err != nil {
		return err
	}
	if err := awaitFiles(cfg.Dir, "addr", cfg.N, deadline); err != nil {
		return err
	}
	for _, p := range plan.Neighbours(cfg.ID) {
		b, err := os.ReadFile(filepath.Join(cfg.Dir, fmt.Sprintf("addr.%d", p)))
		if err != nil {
			return err
		}
		if err := s.SuperviseTo(string(b)); err != nil {
			return fmt.Errorf("dial node %d: %w", p, err)
		}
	}
	if err := writeMark(cfg.Dir, "ready", cfg.ID, nil); err != nil {
		return err
	}
	if err := awaitFiles(cfg.Dir, "ready", cfg.N, deadline); err != nil {
		return err
	}

	r := rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID)*7919))
	restored := 0
	if cfg.Restarted {
		// A re-execed incarnation skips the warm phase (its barriers are
		// long passed) and instead recovers state: wait for the peers'
		// supervisors to redial us — the warm-start remap can only land
		// rules on connections that exist — then seed from the latest
		// checkpoint.
		if cfg.CheckpointDir != "" {
			degree := len(plan.Neighbours(cfg.ID))
			for p := 0; p < cfg.N; p++ {
				if p == cfg.ID {
					continue
				}
				for _, q := range plan.Neighbours(p) {
					if q == cfg.ID {
						degree++
					}
				}
			}
			for end := time.Now().Add(5 * time.Second); s.NumConns() < degree && time.Now().Before(end); {
				time.Sleep(5 * time.Millisecond)
			}
			if restored, err = s.WarmStart(); err != nil {
				return fmt.Errorf("warm start: %w", err)
			}
		}
	} else {
		for i := 0; i < cfg.Warm; i++ {
			_, _ = s.Search(plan.SearchString(plan.PickTopic(r, cfg.ID)), byte(cfg.TTL), queryTimeout)
		}
	}
	if err := writeMark(cfg.Dir, "warm", cfg.ID, nil); err != nil {
		return err
	}
	if err := awaitFiles(cfg.Dir, "warm", cfg.N, deadline); err != nil {
		return err
	}
	// The meas mark tells the parent every node is in (or entering) its
	// measured loop — the restart drill's kill is timed off this barrier.
	if err := writeMark(cfg.Dir, "meas", cfg.ID, nil); err != nil {
		return err
	}

	tc := s.NetInstruments()
	in0, out0 := tc.MsgsIn.Value(), tc.MsgsOut.Value()
	bin0, bout0 := tc.BytesIn.Value(), tc.BytesOut.Value()
	sheds0 := tc.Sheds.Value()
	res := NodeResult{ID: cfg.ID, Queries: cfg.Queries}
	start := time.Now()
	for i := 0; i < cfg.Queries; i++ {
		t0 := time.Now()
		if _, err := s.Search(plan.SearchString(plan.PickTopic(r, cfg.ID)), byte(cfg.TTL), queryTimeout); err == nil {
			res.Hits++
			res.LatenciesNS = append(res.LatenciesNS, time.Since(t0).Nanoseconds())
		}
		if cfg.QueryGapMS > 0 {
			time.Sleep(time.Duration(cfg.QueryGapMS) * time.Millisecond)
		}
	}
	res.DurationNS = time.Since(start).Nanoseconds()
	res.MsgsIn = tc.MsgsIn.Value() - in0
	res.MsgsOut = tc.MsgsOut.Value() - out0
	res.BytesIn = tc.BytesIn.Value() - bin0
	res.BytesOut = tc.BytesOut.Value() - bout0
	res.QueueSheds = tc.Sheds.Value() - sheds0
	res.Dials = tc.Dials.Value()
	res.AcceptErrors = tc.AcceptErrs.Value()
	res.Reconnects = tc.Reconnects.Value()
	res.RestoredRules = restored

	body, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	if err := writeMark(cfg.Dir, "result", cfg.ID, body); err != nil {
		return err
	}
	// Hold sockets open until every peer has finished measuring.
	if err := awaitFiles(cfg.Dir, "result", cfg.N, deadline); err != nil {
		return err
	}
	s.Close()
	// Goroutine-leak check: transports must reap their loops.
	leaked := 0
	for end := time.Now().Add(5 * time.Second); ; {
		leaked = runtime.NumGoroutine() - g0
		if leaked <= 0 || time.Now().After(end) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 0 {
		// Re-publish the result with the leak recorded.
		res.LeakedGoroutines = leaked
		if body, err := json.Marshal(&res); err == nil {
			_ = os.WriteFile(filepath.Join(cfg.Dir, fmt.Sprintf("result.%d", cfg.ID)), body, 0o644)
		}
	}
	fmt.Printf("node %d: %d/%d hits, %d msgs in, %d sheds, leaked %d\n",
		cfg.ID, res.Hits, res.Queries, res.MsgsIn, res.QueueSheds, leaked)
	return nil
}

// Run launches the cluster by re-execing this binary once per node,
// waits for every child, and aggregates their results.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 processes, got %d", cfg.N)
	}
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := cfg.Dir
	keep := dir != ""
	if keep {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	} else {
		dir, err = os.MkdirTemp("", "arqcluster")
		if err != nil {
			return nil, err
		}
	}

	cmds := make([]*exec.Cmd, cfg.N)
	logs := make([]*os.File, cfg.N)
	defer func() {
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				_ = c.Process.Kill()
			}
		}
		for _, f := range logs {
			if f != nil {
				f.Close()
			}
		}
	}()
	makeNode := func(i int) NodeConfig {
		nc := NodeConfig{
			ID: i, N: cfg.N, Dir: dir,
			Warm: cfg.Warm, Queries: cfg.Queries, TTL: cfg.TTL, Seed: cfg.Seed,
			FreeRiderFrac: cfg.FreeRiderFrac,
		}
		if cfg.Checkpoint {
			nc.CheckpointDir = filepath.Join(dir, fmt.Sprintf("ckpt.%d", i))
		}
		if cfg.Restart {
			// Pace the measured loop so the kill lands mid-workload and the
			// survivors (parked at the result barrier afterwards) are still
			// holding their sockets open when the victim comes back.
			nc.QueryGapMS = 10
		}
		return nc
	}
	startChild := func(nc NodeConfig, logName string) (*exec.Cmd, *os.File, error) {
		if nc.CheckpointDir != "" {
			if err := os.MkdirAll(nc.CheckpointDir, 0o755); err != nil {
				return nil, nil, err
			}
		}
		raw, err := json.Marshal(&nc)
		if err != nil {
			return nil, nil, err
		}
		lf, err := os.Create(filepath.Join(dir, logName))
		if err != nil {
			return nil, nil, err
		}
		c := exec.Command(bin)
		c.Env = append(os.Environ(), childEnv+"="+string(raw))
		c.Stdout, c.Stderr = lf, lf
		if err := c.Start(); err != nil {
			lf.Close()
			return nil, nil, fmt.Errorf("cluster: start node %d: %w", nc.ID, err)
		}
		return c, lf, nil
	}
	for i := 0; i < cfg.N; i++ {
		c, lf, err := startChild(makeNode(i), fmt.Sprintf("node.%d.log", i))
		if err != nil {
			return nil, err
		}
		cmds[i], logs[i] = c, lf
	}

	if cfg.Restart {
		k := cfg.RestartNode
		if k < 0 || k >= cfg.N {
			return nil, fmt.Errorf("cluster: restart node %d out of range", k)
		}
		// Kill mid-workload: once every node is measuring, give the
		// cluster a moment of load, then take node k down hard.
		deadline := time.Now().Add(runTimeout)
		if err := awaitFiles(dir, "meas", cfg.N, deadline); err != nil {
			return nil, err
		}
		time.Sleep(restartDelay)
		_ = cmds[k].Process.Kill()
		_ = cmds[k].Wait()
		// A stale result from a too-fast measurement phase must not
		// satisfy the peers' result barrier on the old incarnation's
		// behalf; the restarted node writes the real one.
		_ = os.Remove(filepath.Join(dir, fmt.Sprintf("result.%d", k)))
		addr, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("addr.%d", k)))
		if err != nil {
			return nil, fmt.Errorf("cluster: restart node %d: %w", k, err)
		}
		nc := makeNode(k)
		nc.ListenAddr = string(addr)
		nc.Restarted = true
		c, lf, err := startChild(nc, fmt.Sprintf("node.%d.restart.log", k))
		if err != nil {
			return nil, err
		}
		logs = append(logs, lf)
		cmds[k] = c
	}

	waitErr := make(chan error, 1)
	go func() {
		var first error
		for i, c := range cmds {
			if err := c.Wait(); err != nil && first == nil {
				first = fmt.Errorf("node %d: %w (log: %s)", i, err, filepath.Join(dir, fmt.Sprintf("node.%d.log", i)))
			}
		}
		waitErr <- first
	}()
	select {
	case err := <-waitErr:
		for i := range cmds {
			cmds[i] = nil // all reaped
		}
		if err != nil {
			return nil, err
		}
	case <-time.After(runTimeout):
		return nil, fmt.Errorf("cluster: run exceeded %v (logs under %s)", runTimeout, dir)
	}

	res := &Result{Procs: cfg.N}
	var all []int64
	var maxDur int64
	for i := 0; i < cfg.N; i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("result.%d", i)))
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d left no result: %w", i, err)
		}
		var nr NodeResult
		if err := json.Unmarshal(b, &nr); err != nil {
			return nil, err
		}
		res.PerNode = append(res.PerNode, nr)
		res.Queries += nr.Queries
		res.Hits += nr.Hits
		res.MsgsIn += nr.MsgsIn
		res.MsgsOut += nr.MsgsOut
		res.BytesIn += nr.BytesIn
		res.BytesOut += nr.BytesOut
		res.QueueSheds += nr.QueueSheds
		res.Dials += nr.Dials
		res.AcceptErrs += nr.AcceptErrors
		res.LeakedGoroutines += nr.LeakedGoroutines
		res.Reconnects += nr.Reconnects
		res.RestoredRules += nr.RestoredRules
		all = append(all, nr.LatenciesNS...)
		if nr.DurationNS > maxDur {
			maxDur = nr.DurationNS
		}
	}
	res.DurationNS = maxDur
	if res.Queries > 0 {
		res.SuccessRate = float64(res.Hits) / float64(res.Queries)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50NS = all[len(all)/2]
		res.P99NS = all[(len(all)*99)/100]
	}
	if maxDur > 0 {
		res.MsgsPerSec = float64(res.MsgsIn) / (float64(maxDur) / 1e9)
	}
	if !keep {
		os.RemoveAll(dir)
	}
	return res, nil
}
