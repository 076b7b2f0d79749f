// Package tracegen synthesizes the query/reply stream a vantage node in an
// unstructured P2P network observes, standing in for the 7-day Gnutella
// capture of paper §IV-A (see DESIGN.md for the substitution argument).
//
// The generator models exactly the statistical structure the paper's
// results depend on:
//
//   - Neighbor churn. The vantage node keeps Config.Neighbors concurrent
//     neighbor slots. Session lengths are bounded-Pareto — most neighbors
//     are short-lived, a minority persist for many blocks — which is what
//     makes the Static policy's coverage linger around 0.4 before decaying
//     while its success dies quickly.
//   - Interest-based locality. Each neighbor has a small profile of
//     interests drawn from a global Zipf popularity; its queries come from
//     that profile.
//   - Reply-path concentration and drift. Each interest has a primary
//     provider neighbor; a reply arrives through the primary with
//     probability ProviderFidelity, else through a random neighbor.
//     Primaries rotate every RotatePeriodPairs observed pairs (staggered
//     with uniform random phase per interest, modeling the overlay
//     reorganizing over hours) and rotate immediately when the provider
//     neighbor departs.
//   - Activity skew. Per-neighbor query rates are Pareto-distributed, so a
//     few neighbors dominate traffic the way high-degree Gnutella
//     ultrapeers do.
//
// Generator implements trace.Source, streaming blocks of query–reply pairs
// without materializing the whole trace, and can also emit a raw capture
// (queries including unanswered ones and duplicate GUIDs, plus replies)
// for the §IV-A import-pipeline experiment.
package tracegen

import (
	"fmt"
	"time"

	"arq/internal/obsv"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Observability instruments: generation throughput is recorded at block
// granularity (one timing per Next call, never per pair) so the per-pair
// path stays untouched.
var (
	mBlocks     = obsv.GetCounter("tracegen.blocks")
	mPairs      = obsv.GetCounter("tracegen.pairs")
	mBlockNs    = obsv.GetHistogram("tracegen.block_ns", obsv.DurationBuckets())
	mRawQueries = obsv.GetCounter("tracegen.raw_queries")
)

// Config parameterizes the synthetic vantage trace.
type Config struct {
	Seed uint64

	// Neighbors is the number of concurrent neighbor slots.
	Neighbors int
	// Interests is the number of interest categories.
	Interests int
	// InterestZipf is the skew of global interest popularity.
	InterestZipf float64
	// ProfileSize is how many interests each neighbor queries for.
	ProfileSize int

	// SessionAlpha/SessionMinPairs/SessionMaxPairs shape the bounded-
	// Pareto session length of transient neighbors, measured in observed
	// pairs. A small fraction StableProb of sessions are instead drawn
	// uniformly from [StableMinPairs, StableMaxPairs], modeling the
	// long-lived ultrapeer links real vantage measurements show; these are
	// what keeps Static Ruleset coverage lingering long after its success
	// has died (§V-A).
	SessionAlpha    float64
	SessionMinPairs float64
	SessionMaxPairs float64
	StableProb      float64
	StableMinPairs  float64
	StableMaxPairs  float64

	// ActivityAlpha/ActivityMin/ActivityMax shape the Pareto activity
	// weight of each neighbor (its relative query rate). Weights near
	// ActivityMin model leaf peers whose handful of queries per block
	// never clears the support-pruning threshold — an age-independent
	// coverage loss every policy pays equally.
	ActivityAlpha float64
	ActivityMin   float64
	ActivityMax   float64

	// ProviderFidelity is the probability a reply arrives through the
	// interest's primary provider rather than a random neighbor.
	ProviderFidelity float64
	// RotatePeriodPairs is the per-interest primary rotation period.
	RotatePeriodPairs int64

	// BlockSize is the pairs-per-block served by Next (paper default
	// 10,000) and TotalBlocks bounds the stream (<= 0 means unbounded).
	BlockSize   int
	TotalBlocks int

	// AnswerProb and DuplicateGUIDFrac only affect raw-capture
	// generation: the fraction of queries that receive a reply and the
	// fraction of queries issued with an already-used GUID (the paper's
	// misbehaving clients).
	AnswerProb        float64
	DuplicateGUIDFrac float64

	// ShockAtBlock, when positive, injects a regime shock at that block
	// boundary: ShockFraction (default 0.8) of the neighbor slots are
	// replaced at once and every active provider rotates — a mass overlay
	// reorganization (client rollout, partition healing). The recovery
	// experiments use it to measure how fast each policy re-learns.
	ShockAtBlock  int
	ShockFraction float64
}

// PaperProfile returns the calibrated configuration whose block stream
// reproduces the shape of every §V result; the calibration tests in this
// package assert the bands. The paper's capture answers 3,254,274 of
// 10,514,090 queries (AnswerProb ≈ 0.3095).
func PaperProfile() Config {
	return Config{
		Seed:              1,
		Neighbors:         120,
		Interests:         400,
		InterestZipf:      0.85,
		ProfileSize:       3,
		SessionAlpha:      1.0,
		SessionMinPairs:   14_000,
		SessionMaxPairs:   800_000,
		StableProb:        0.001,
		StableMinPairs:    1_500_000,
		StableMaxPairs:    12_000_000,
		ActivityAlpha:     0.75,
		ActivityMin:       0.05,
		ActivityMax:       12,
		ProviderFidelity:  0.90,
		RotatePeriodPairs: 560_000,
		BlockSize:         10_000,
		TotalBlocks:       366, // one warm-up + the paper's 365 trials
		AnswerProb:        3_254_274.0 / 10_514_090.0,
		DuplicateGUIDFrac: 0.002,
	}
}

// withDefaults fills zero fields from PaperProfile.
func (c Config) withDefaults() Config {
	d := PaperProfile()
	if c.Neighbors <= 0 {
		c.Neighbors = d.Neighbors
	}
	if c.Interests <= 0 {
		c.Interests = d.Interests
	}
	if c.InterestZipf <= 0 {
		c.InterestZipf = d.InterestZipf
	}
	if c.ProfileSize <= 0 {
		c.ProfileSize = d.ProfileSize
	}
	if c.SessionAlpha <= 0 {
		c.SessionAlpha = d.SessionAlpha
	}
	if c.SessionMinPairs <= 0 {
		c.SessionMinPairs = d.SessionMinPairs
	}
	if c.SessionMaxPairs <= c.SessionMinPairs {
		c.SessionMaxPairs = d.SessionMaxPairs
	}
	if c.StableProb <= 0 {
		c.StableProb = d.StableProb
	}
	if c.StableMinPairs <= 0 {
		c.StableMinPairs = d.StableMinPairs
	}
	if c.StableMaxPairs <= c.StableMinPairs {
		c.StableMaxPairs = d.StableMaxPairs
	}
	if c.ActivityAlpha <= 0 {
		c.ActivityAlpha = d.ActivityAlpha
	}
	if c.ActivityMin <= 0 {
		c.ActivityMin = d.ActivityMin
	}
	if c.ActivityMax <= c.ActivityMin {
		c.ActivityMax = d.ActivityMax
	}
	if c.ProviderFidelity <= 0 {
		c.ProviderFidelity = d.ProviderFidelity
	}
	if c.RotatePeriodPairs <= 0 {
		c.RotatePeriodPairs = d.RotatePeriodPairs
	}
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	if c.AnswerProb <= 0 || c.AnswerProb > 1 {
		c.AnswerProb = d.AnswerProb
	}
	return c
}

type neighbor struct {
	id      trace.HostID
	spawnAt int64 // pair counter at which the session began
	deathAt int64 // pair counter at which the session ends
	profile []trace.InterestID
}

// Generator produces the synthetic pair stream. It is not safe for
// concurrent use; create one per goroutine (cheap) with distinct seeds.
type Generator struct {
	cfg Config
	rng *stats.RNG

	interestPop *stats.Zipf
	session     *stats.BoundedPareto
	activity    *stats.BoundedPareto

	neighbors []neighbor
	weights   []float64
	alive     map[trace.HostID]int // id -> slot

	providers  []trace.HostID // per interest; NoHost until first use
	nextRotate []int64        // per interest

	nextID      trace.HostID
	nextGUID    trace.GUID
	pairCounter int64
	blocksOut   int
}

// New constructs a generator; zero Config fields take PaperProfile values.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:         cfg,
		rng:         stats.NewRNG(cfg.Seed),
		interestPop: stats.NewZipf(cfg.Interests, cfg.InterestZipf),
		session:     stats.NewBoundedPareto(cfg.SessionAlpha, cfg.SessionMinPairs, cfg.SessionMaxPairs),
		activity:    stats.NewBoundedPareto(cfg.ActivityAlpha, cfg.ActivityMin, cfg.ActivityMax),
		neighbors:   make([]neighbor, cfg.Neighbors),
		weights:     make([]float64, cfg.Neighbors),
		alive:       make(map[trace.HostID]int, cfg.Neighbors),
		providers:   make([]trace.HostID, cfg.Interests),
		nextRotate:  make([]int64, cfg.Interests),
		nextID:      1,
		nextGUID:    1,
	}
	for slot := range g.neighbors {
		g.spawn(slot)
		// The trace must begin in steady state: the session length of a
		// slot's occupant at a random observation instant is length-biased
		// (long sessions hold slots in proportion to their duration), and
		// the occupant is at a uniform age within it. Without this, every
		// session would start synchronized at age zero and the Static
		// policy's decay would be badly distorted.
		n := &g.neighbors[slot]
		length := g.stationarySessionLength()
		residual := length - int64(g.rng.Float64()*float64(length))
		if residual < 1 {
			residual = 1
		}
		n.deathAt = g.pairCounter + residual
		n.spawnAt = n.deathAt - length
	}
	for i := range g.nextRotate {
		// Stagger rotation phases uniformly.
		g.nextRotate[i] = int64(g.rng.Float64() * float64(cfg.RotatePeriodPairs))
	}
	return g
}

// sessionLength draws a fresh session: transient bounded-Pareto, or with
// probability StableProb a long uniform "stable link" session.
func (g *Generator) sessionLength() int64 {
	if g.rng.Bool(g.cfg.StableProb) {
		return int64(g.cfg.StableMinPairs +
			g.rng.Float64()*(g.cfg.StableMaxPairs-g.cfg.StableMinPairs))
	}
	return int64(g.session.Sample(g.rng))
}

// stationarySessionLength draws the session length of a slot occupant
// observed at a random instant: components are chosen in proportion to
// probability × mean duration, and each component is sampled
// length-biased.
func (g *Generator) stationarySessionLength() int64 {
	p := g.cfg.StableProb
	stableMean := (g.cfg.StableMinPairs + g.cfg.StableMaxPairs) / 2
	wStable := p * stableMean
	wTransient := (1 - p) * g.session.Mean()
	if g.rng.Float64()*(wStable+wTransient) < wStable {
		return int64(stats.UniformLengthBiased(g.rng, g.cfg.StableMinPairs, g.cfg.StableMaxPairs))
	}
	return int64(g.session.SampleLengthBiased(g.rng))
}

// spawn replaces the neighbor in slot with a fresh peer.
func (g *Generator) spawn(slot int) {
	old := g.neighbors[slot].id
	if old != trace.NoHost {
		delete(g.alive, old)
	}
	id := g.nextID
	g.nextID++
	profile := make([]trace.InterestID, g.cfg.ProfileSize)
	for i := range profile {
		profile[i] = trace.InterestID(g.interestPop.Sample(g.rng))
	}
	g.neighbors[slot] = neighbor{
		id:      id,
		spawnAt: g.pairCounter,
		deathAt: g.pairCounter + g.sessionLength(),
		profile: profile,
	}
	g.weights[slot] = g.activity.Sample(g.rng)
	g.alive[id] = slot
}

// liveSlot returns slot after respawning it if its session has ended.
func (g *Generator) liveSlot(slot int) int {
	if g.neighbors[slot].deathAt <= g.pairCounter {
		g.spawn(slot)
	}
	return slot
}

// rotateProvider reseats the primary provider of interest. Selection is
// biased toward recently-joined neighbors (a tournament of two, keeping
// the younger): a freshly opened link exposes routes into a different part
// of the overlay, so new content paths tend to appear behind new links
// rather than re-validating old ones. This is what drives Static Ruleset
// success toward zero (§V-A) instead of leaving a chance floor from
// long-lived neighbors being re-selected.
func (g *Generator) rotateProvider(interest trace.InterestID) {
	a := g.liveSlot(g.rng.Intn(len(g.neighbors)))
	b := g.liveSlot(g.rng.Intn(len(g.neighbors)))
	if g.neighbors[b].spawnAt > g.neighbors[a].spawnAt {
		a = b
	}
	g.providers[interest] = g.neighbors[a].id
}

// provider returns the current primary for interest, applying any due
// phase rotations and replacing departed providers.
func (g *Generator) provider(interest trace.InterestID) trace.HostID {
	period := g.cfg.RotatePeriodPairs
	for g.nextRotate[interest] <= g.pairCounter {
		g.rotateProvider(interest)
		g.nextRotate[interest] += period
	}
	p := g.providers[interest]
	if p == trace.NoHost {
		g.rotateProvider(interest)
		p = g.providers[interest]
	} else if _, ok := g.alive[p]; !ok {
		// Provider departed: the path to that content is gone.
		g.rotateProvider(interest)
		p = g.providers[interest]
	}
	return p
}

// emitQuery draws the next query (source and interest) from the model.
func (g *Generator) emitQuery() (srcSlot int, q trace.Query) {
	srcSlot = g.liveSlot(stats.WeightedChoice(g.rng, g.weights))
	n := &g.neighbors[srcSlot]
	interest := n.profile[g.rng.Intn(len(n.profile))]
	q = trace.Query{
		GUID:     g.nextGUID,
		Time:     g.pairCounter,
		Source:   n.id,
		Interest: interest,
		Text:     queryText(interest),
	}
	g.nextGUID++
	return srcSlot, q
}

// emitReply draws the replying neighbor for a query.
func (g *Generator) emitReply(q trace.Query) trace.Reply {
	var replier trace.HostID
	if g.rng.Bool(g.cfg.ProviderFidelity) {
		replier = g.provider(q.Interest)
	} else {
		slot := g.liveSlot(g.rng.Intn(len(g.neighbors)))
		replier = g.neighbors[slot].id
	}
	return trace.Reply{
		GUID:     q.GUID,
		Time:     q.Time + 1,
		From:     replier,
		Host:     replier + 1<<20, // a peer beyond the neighbor, via replier
		Filename: fmt.Sprintf("file-%d.dat", q.Interest),
	}
}

// NextPair produces one query–reply pair and advances the model clock.
func (g *Generator) NextPair() trace.Pair {
	_, q := g.emitQuery()
	r := g.emitReply(q)
	g.pairCounter++
	return trace.Pair{
		GUID:      q.GUID,
		Source:    q.Source,
		Replier:   r.From,
		Interest:  q.Interest,
		QueryTime: q.Time,
		ReplyTime: r.Time,
	}
}

// shock forcibly replaces frac of the neighbor slots and rotates every
// active provider — the mass-reorganization event ShockAtBlock schedules.
func (g *Generator) shock(frac float64) {
	n := int(frac * float64(len(g.neighbors)))
	for _, slot := range stats.SampleWithoutReplacement(g.rng, len(g.neighbors), n) {
		g.spawn(slot)
	}
	for i := range g.providers {
		if g.providers[i] != trace.NoHost {
			g.rotateProvider(trace.InterestID(i))
		}
	}
}

// Next implements trace.Source: a freshly-allocated block of BlockSize
// pairs, or nil,false once TotalBlocks blocks have been served.
func (g *Generator) Next() (trace.Block, bool) {
	if g.cfg.TotalBlocks > 0 && g.blocksOut >= g.cfg.TotalBlocks {
		return nil, false
	}
	if g.cfg.ShockAtBlock > 0 && g.blocksOut == g.cfg.ShockAtBlock {
		frac := g.cfg.ShockFraction
		if frac <= 0 {
			frac = 0.8
		}
		g.shock(frac)
	}
	start := time.Now()
	block := make(trace.Block, g.cfg.BlockSize)
	for i := range block {
		block[i] = g.NextPair()
	}
	g.blocksOut++
	mBlocks.Inc()
	mPairs.Add(int64(len(block)))
	mBlockNs.Observe(time.Since(start).Nanoseconds())
	return block, true
}

// BlockSize implements trace.Source.
func (g *Generator) BlockSize() int { return g.cfg.BlockSize }

// GenerateRaw produces a raw capture of nQueries queries with replies for
// roughly AnswerProb of them, including a DuplicateGUIDFrac fraction of
// queries that illegally reuse an earlier GUID — the §IV-A import
// workload. Unanswered queries advance the interleaving but not the pair
// clock, mirroring the capture where only replied queries became pairs.
func (g *Generator) GenerateRaw(nQueries int) ([]trace.Query, []trace.Reply) {
	queries := make([]trace.Query, 0, nQueries)
	expReplies := int(float64(nQueries)*g.cfg.AnswerProb) + 1
	replies := make([]trace.Reply, 0, expReplies)
	mRawQueries.Add(int64(nQueries))
	for i := 0; i < nQueries; i++ {
		_, q := g.emitQuery()
		if len(queries) > 0 && g.rng.Bool(g.cfg.DuplicateGUIDFrac) {
			// A misbehaving client reuses an old GUID for a new query.
			q.GUID = queries[g.rng.Intn(len(queries))].GUID
		}
		queries = append(queries, q)
		if g.rng.Bool(g.cfg.AnswerProb) {
			replies = append(replies, g.emitReply(q))
			g.pairCounter++
		}
	}
	return queries, replies
}

// queryText renders a deterministic keyword string for an interest
// category, standing in for the free-text query strings of the capture.
func queryText(interest trace.InterestID) string {
	return fmt.Sprintf("topic-%03d keywords", interest)
}
