// Package fault is the deterministic fault-injection layer for the
// network stacks: per-edge message drop, duplication, delay/reorder,
// GUID corruption, and per-node crash-and-restart churn plus slow-peer
// stalls. The query engine (internal/peer/flat, and its oracle in
// internal/peer) and the live servent in internal/vantage consult an
// Injector at every message handoff; a nil Injector is the lossless fast
// path and leaves their behaviour exactly as before (pinned by the
// golden and reference-equivalence tests).
//
// Every decision a Seeded injector makes is a pure hash of (seed, fault
// kind, edge or node, per-edge ordinal or churn epoch). Each edge's
// fault sequence is therefore a function of that edge's own send order
// only: the sequential engines get globally reproducible runs, and a
// concurrent servent mesh gets per-edge reproducibility regardless of
// goroutine interleaving.
package fault

import (
	"sync"
	"sync/atomic"

	"arq/internal/obsv"
)

// Fate is the injector's verdict for one message handoff.
type Fate struct {
	// Drop loses the message entirely.
	Drop bool
	// Duplicate delivers the message twice — the wire-level duplicate
	// GUIDs the paper's trace import has to scrub (§IV-A), exercising
	// duplicate suppression.
	Duplicate bool
	// Corrupt flips bits in the message's GUID on the wire path, so
	// duplicate suppression misses it and the reverse path cannot route
	// its hits. The simulator engines have no wire encoding and treat
	// Corrupt as Duplicate.
	Corrupt bool
	// Delay postpones delivery by that many delivery steps (the engines'
	// step counter: messages issued later overtake it — reordering).
	// Slow-peer stalls surface here too: every send from a stalled peer
	// carries the stall delay.
	Delay int
}

// Injector decides the fate of messages and the liveness of nodes.
// Implementations must be safe for concurrent use; decisions should be
// deterministic per edge (see Seeded). A nil Injector everywhere means
// a perfect network.
type Injector interface {
	// OnSend is consulted once per message handoff from -> to and
	// returns the message's fate.
	OnSend(from, to int) Fate
	// Down reports whether node u is crashed in the current churn
	// epoch. Crashed nodes neither process nor forward messages; a
	// node issuing its own query is by definition up, so the engines
	// skip this check at a query's origin.
	Down(u int) bool
	// Tick advances the churn clock by one query. Crash and slow-peer
	// assignments are re-rolled every epoch (a fixed number of ticks),
	// modeling session churn: a peer crashed this epoch restarts in a
	// later one.
	Tick()
}

// Fault-injection instruments, one set for every injector in the process.
// Deterministic workloads produce deterministic counts, which the chaos
// smoke test in CI byte-compares across identical seeds.
var counts struct {
	MsgDrops  obsv.Counter `obsv:"fault.msg_drops"`
	DownDrops obsv.Counter `obsv:"fault.down_drops"`
	Epochs    obsv.Counter `obsv:"fault.epochs"`
}

func init() { obsv.Default.Register(&counts) }

// ReportDownDrop counts a delivery discarded because its receiver was
// crashed. The engines own the delivery loop, so they report this one;
// the injector counts the drops it decides itself.
func ReportDownDrop() { counts.DownDrops.Inc() }

// Config parameterizes a Seeded injector. All probabilities are per
// decision in [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed drives every decision. Two injectors with equal Config make
	// identical decisions given identical per-edge send orders.
	Seed uint64
	// Drop is the per-handoff message loss probability.
	Drop float64
	// Duplicate is the per-handoff duplicate-delivery probability.
	Duplicate float64
	// Corrupt is the per-handoff GUID-corruption probability (wire
	// path; the simulator engines downgrade it to Duplicate).
	Corrupt float64
	// Delay is the per-handoff reorder probability; a delayed message
	// is postponed by a uniform 1..MaxDelay delivery steps.
	Delay    float64
	MaxDelay int
	// Crash is the per-node per-epoch probability of being down for
	// the whole epoch (crash-and-restart churn).
	Crash float64
	// Slow is the per-node per-epoch probability of a slow-peer stall:
	// every send from a stalled peer is delayed by SlowDelay steps.
	Slow      float64
	SlowDelay int
	// EpochEvery is how many Ticks (queries) one churn epoch lasts
	// (default 64).
	EpochEvery int
}

// Seeded is the deterministic Injector: every verdict is a hash of the
// seed, the fault kind, the edge (or node and epoch), and the edge's
// own handoff ordinal.
type Seeded struct {
	cfg   Config
	epoch atomic.Uint64
	ticks atomic.Uint64

	mu    sync.Mutex
	edges map[uint64]uint64 // packed edge -> handoffs seen
}

// NewSeeded builds an injector from cfg, applying defaults (MaxDelay 4,
// SlowDelay 8, EpochEvery 64).
func NewSeeded(cfg Config) *Seeded {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 4
	}
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 8
	}
	if cfg.EpochEvery <= 0 {
		cfg.EpochEvery = 64
	}
	return &Seeded{cfg: cfg, edges: make(map[uint64]uint64)}
}

// Distinct hash domains per fault kind, so one uniform draw never
// correlates with another.
const (
	tagDrop = iota + 1
	tagDup
	tagCorrupt
	tagDelay
	tagDelayLen
	tagCrash
	tagSlow
)

// mix folds the inputs through two rounds of splitmix-style finalizers;
// the output is uniform enough that the top 53 bits serve as a [0,1)
// draw.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 29
	}
	return h
}

func (f *Seeded) roll(tag, a, b, n uint64) float64 {
	return float64(mix(f.cfg.Seed, tag, a, b, n)>>11) / (1 << 53)
}

// packEdge packs a directed edge into one map key. from may be -1 for
// origin/self handoffs; the +1 shift keeps the packing collision-free.
func packEdge(from, to int) uint64 {
	return uint64(uint32(from+1))<<32 | uint64(uint32(to+1))
}

// OnSend implements Injector: one verdict per handoff, driven by the
// edge's own ordinal so its fault sequence is independent of every
// other edge's traffic.
func (f *Seeded) OnSend(from, to int) Fate {
	key := packEdge(from, to)
	f.mu.Lock()
	n := f.edges[key]
	f.edges[key] = n + 1
	f.mu.Unlock()

	a, b := uint64(uint32(from+1)), uint64(uint32(to+1))
	var fate Fate
	if f.cfg.Drop > 0 && f.roll(tagDrop, a, b, n) < f.cfg.Drop {
		fate.Drop = true
		counts.MsgDrops.Inc()
		return fate
	}
	if f.cfg.Duplicate > 0 && f.roll(tagDup, a, b, n) < f.cfg.Duplicate {
		fate.Duplicate = true
	}
	if f.cfg.Corrupt > 0 && f.roll(tagCorrupt, a, b, n) < f.cfg.Corrupt {
		fate.Corrupt = true
	}
	if f.cfg.Delay > 0 && f.roll(tagDelay, a, b, n) < f.cfg.Delay {
		fate.Delay = 1 + int(mix(f.cfg.Seed, tagDelayLen, a, b|n<<32)%uint64(f.cfg.MaxDelay))
	}
	if f.cfg.Slow > 0 && f.slow(from) {
		fate.Delay += f.cfg.SlowDelay
	}
	return fate
}

// Down implements Injector: a per-(node, epoch) hash, so a node's crash
// persists for the epoch and clears at the next one.
func (f *Seeded) Down(u int) bool {
	if f.cfg.Crash <= 0 || u < 0 {
		return false
	}
	return f.roll(tagCrash, uint64(uint32(u)), f.epoch.Load(), 0) < f.cfg.Crash
}

// slow reports whether node u is stalled this epoch.
func (f *Seeded) slow(u int) bool {
	if u < 0 {
		return false
	}
	return f.roll(tagSlow, uint64(uint32(u)), f.epoch.Load(), 0) < f.cfg.Slow
}

// Tick implements Injector: advances the churn clock one query.
func (f *Seeded) Tick() {
	t := f.ticks.Add(1)
	e := t / uint64(f.cfg.EpochEvery)
	if f.epoch.Swap(e) != e {
		counts.Epochs.Inc()
	}
}
