// Package tracegen synthesizes the query/reply stream a vantage node in an
// unstructured P2P network observes, standing in for the 7-day Gnutella
// capture of paper §IV-A (see DESIGN.md for the substitution argument).
//
// The generator models exactly the statistical structure the paper's
// results depend on:
//
//   - Neighbor churn. The vantage node keeps neighborSlots concurrent
//     neighbor slots. Session lengths are bounded-Pareto — most neighbors
//     are short-lived, a minority persist for many blocks — which is what
//     makes the Static policy's coverage linger around 0.4 before decaying
//     while its success dies quickly.
//   - Interest-based locality. Each neighbor has a small profile of
//     interests drawn from a global Zipf popularity; its queries come from
//     that profile.
//   - Reply-path concentration and drift. Each interest has a primary
//     provider neighbor; a reply arrives through the primary with
//     probability providerFidelity, else through a random neighbor.
//     Primaries rotate every rotatePeriodPairs observed pairs (staggered
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

	"arq/internal/stats"
	"arq/internal/trace"
)

// The calibrated model: every §V result's shape comes from these numbers,
// and the calibration tests in this package assert the bands. They are
// constants because every program runs them; Config holds what a program
// or a test varies.
const (
	// neighborSlots is the number of concurrent neighbor slots.
	neighborSlots = 120

	// sessionAlpha/sessionMinPairs/sessionMaxPairs shape the bounded-
	// Pareto session length of transient neighbors, measured in observed
	// pairs. A small fraction stableProb of sessions are instead drawn
	// uniformly from [stableMinPairs, stableMaxPairs], modeling the
	// long-lived ultrapeer links real vantage measurements show; these are
	// what keeps Static Ruleset coverage lingering long after its success
	// has died (§V-A).
	sessionAlpha    = 1.0
	sessionMinPairs = 14_000
	sessionMaxPairs = 800_000
	stableProb      = 0.001
	stableMinPairs  = 1_500_000
	stableMaxPairs  = 12_000_000

	// activityAlpha/activityMin/activityMax shape the Pareto activity
	// weight of each neighbor (its relative query rate). Weights near
	// activityMin model leaf peers whose handful of queries per block
	// never clears the support-pruning threshold — an age-independent
	// coverage loss every policy pays equally.
	activityAlpha = 0.75
	activityMin   = 0.05
	activityMax   = 12

	// providerFidelity is the probability a reply arrives through the
	// interest's primary provider rather than a random neighbor.
	providerFidelity = 0.90
	// rotatePeriodPairs is the per-interest primary rotation period.
	rotatePeriodPairs = 560_000

	// answerProb and duplicateGUIDFrac only affect raw-capture
	// generation: the fraction of queries that receive a reply (the
	// paper's capture answers 3,254,274 of 10,514,090 queries) and the
	// fraction of queries issued with an already-used GUID (the paper's
	// misbehaving clients).
	answerProb        = 3_254_274.0 / 10_514_090.0
	duplicateGUIDFrac = 0.002
)

// Config parameterizes the synthetic vantage trace.
type Config struct {
	Seed uint64

	// Interests is the number of interest categories.
	Interests int
	// InterestZipf is the skew of global interest popularity.
	InterestZipf float64
	// ProfileSize is how many interests each neighbor queries for.
	ProfileSize int

	// BlockSize is the pairs-per-block served by Next (paper default
	// 10,000) and TotalBlocks bounds the stream (<= 0 means unbounded).
	BlockSize   int
	TotalBlocks int

	// ShockAtBlock, when positive, injects a regime shock at that block
	// boundary: ShockFraction (default 0.8) of the neighbor slots are
	// replaced at once and every active provider rotates — a mass overlay
	// reorganization (client rollout, partition healing). The recovery
	// experiments use it to measure how fast each policy re-learns.
	ShockAtBlock  int
	ShockFraction float64
}

// PaperProfile returns the configuration whose block stream reproduces
// the shape of every §V result over the calibrated model above.
func PaperProfile() Config {
	return Config{
		Seed:         1,
		Interests:    400,
		InterestZipf: 0.85,
		ProfileSize:  3,
		BlockSize:    10_000,
		TotalBlocks:  366, // one warm-up + the paper's 365 trials
	}
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
	weights   []float64 // per slot: the occupant's activity weight
	cum       []float64 // cum[i] = weights[0] + … + weights[i], added left to right

	providers  []trace.HostID // per interest; NoHost until first use
	provSlot   []int          // per interest: the slot providers[i] was seated from
	nextRotate []int64        // per interest

	texts []string // per interest: a raw query's Text
	files []string // per interest: a raw reply's Filename

	nextID      trace.HostID
	nextGUID    trace.GUID
	pairCounter int64
	blocksOut   int
}

// New constructs a generator over cfg, used as given: start from
// PaperProfile() and change what the run varies.
func New(cfg Config) *Generator {
	g := &Generator{
		cfg:         cfg,
		rng:         stats.NewRNG(cfg.Seed),
		interestPop: stats.NewZipf(cfg.Interests, cfg.InterestZipf),
		session:     stats.NewBoundedPareto(sessionAlpha, sessionMinPairs, sessionMaxPairs),
		activity:    stats.NewBoundedPareto(activityAlpha, activityMin, activityMax),
		neighbors:   make([]neighbor, neighborSlots),
		weights:     make([]float64, neighborSlots),
		cum:         make([]float64, neighborSlots),
		providers:   make([]trace.HostID, cfg.Interests),
		provSlot:    make([]int, cfg.Interests),
		nextRotate:  make([]int64, cfg.Interests),
		texts:       make([]string, cfg.Interests),
		files:       make([]string, cfg.Interests),
		nextID:      1,
		nextGUID:    1,
	}
	for i := range g.texts {
		g.texts[i] = queryText(trace.InterestID(i))
		g.files[i] = fmt.Sprintf("file-%d.dat", i)
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
		g.nextRotate[i] = int64(g.rng.Float64() * rotatePeriodPairs)
	}
	return g
}

// sessionLength draws a fresh session: transient bounded-Pareto, or with
// probability stableProb a long uniform "stable link" session.
func (g *Generator) sessionLength() int64 {
	if g.rng.Bool(stableProb) {
		return int64(stableMinPairs +
			g.rng.Float64()*(stableMaxPairs-stableMinPairs))
	}
	return int64(g.session.Sample(g.rng))
}

// stationarySessionLength draws the session length of a slot occupant
// observed at a random instant: components are chosen in proportion to
// probability × mean duration, and each component is sampled
// length-biased.
func (g *Generator) stationarySessionLength() int64 {
	p := float64(stableProb)
	wStable := p * ((stableMinPairs + stableMaxPairs) / 2)
	wTransient := (1 - p) * g.session.Mean()
	if g.rng.Float64()*(wStable+wTransient) < wStable {
		return int64(stats.UniformLengthBiased(g.rng, stableMinPairs, stableMaxPairs))
	}
	return int64(g.session.SampleLengthBiased(g.rng))
}

// spawn replaces the neighbor in slot with a fresh peer. It is the only
// writer of weights, and it keeps cum in step.
func (g *Generator) spawn(slot int) {
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
	w := g.activity.Sample(g.rng)
	if !(w > 0) {
		panic("tracegen: activity weight must be positive")
	}
	g.weights[slot] = w
	resum(g.cum, g.weights, slot)
}

// resum recomputes cum[from:] from weights with the additions a left-to-right
// scan over weights makes, so every sum is bit-identical to that scan's.
func resum(cum, weights []float64, from int) {
	acc := 0.0
	if from > 0 {
		acc = cum[from-1]
	}
	for i := from; i < len(weights); i++ {
		acc += weights[i]
		cum[i] = acc
	}
}

// pickSource returns the first i with u < cum[i], or the last index when
// there is none: the index a linear scan accumulating the weights returns,
// found by binary search. A zero weight repeats its predecessor's sum, so
// for u below the total it is never the first to exceed u.
func pickSource(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
	g.provSlot[interest] = a
}

// provider returns the current primary for interest, applying any due
// phase rotations and replacing departed providers.
func (g *Generator) provider(interest trace.InterestID) trace.HostID {
	for g.nextRotate[interest] <= g.pairCounter {
		g.rotateProvider(interest)
		g.nextRotate[interest] += rotatePeriodPairs
	}
	// The provider is alive while the slot it was seated from still holds
	// it: ids are never reused. A departed provider takes the path to that
	// content with it; NoHost, an interest's first use, matches no
	// occupant either.
	p := g.providers[interest]
	if g.neighbors[g.provSlot[interest]].id != p {
		g.rotateProvider(interest)
		p = g.providers[interest]
	}
	return p
}

// drawQuery draws the next query's source and interest from the model.
func (g *Generator) drawQuery() (trace.HostID, trace.InterestID) {
	u := g.rng.Float64() * g.cum[len(g.cum)-1]
	n := &g.neighbors[g.liveSlot(pickSource(g.cum, u))]
	return n.id, n.profile[g.rng.Intn(len(n.profile))]
}

// drawReplier draws the neighbor a reply to a query for interest arrives
// through.
func (g *Generator) drawReplier(interest trace.InterestID) trace.HostID {
	if g.rng.Bool(providerFidelity) {
		return g.provider(interest)
	}
	return g.neighbors[g.liveSlot(g.rng.Intn(len(g.neighbors)))].id
}

// NextPair produces one query–reply pair and advances the model clock.
func (g *Generator) NextPair() trace.Pair {
	src, interest := g.drawQuery()
	guid := g.nextGUID
	g.nextGUID++
	replier := g.drawReplier(interest)
	g.pairCounter++
	return trace.Pair{GUID: guid, Source: src, Replier: replier, Interest: interest}
}

// shock forcibly replaces frac of the neighbor slots (all of them when
// frac >= 1) and rotates every active provider — the mass-reorganization
// event ShockAtBlock schedules.
func (g *Generator) shock(frac float64) {
	n := min(int(frac*float64(len(g.neighbors))), len(g.neighbors))
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
	block := make(trace.Block, g.cfg.BlockSize)
	for i := range block {
		block[i] = g.NextPair()
	}
	g.blocksOut++
	return block, true
}

// BlockSize implements trace.Source.
func (g *Generator) BlockSize() int { return g.cfg.BlockSize }

// GenerateRaw produces a raw capture of nQueries queries with replies for
// roughly answerProb of them, including a duplicateGUIDFrac fraction of
// queries that illegally reuse an earlier GUID — the §IV-A import
// workload. Unanswered queries advance the interleaving but not the pair
// clock, mirroring the capture where only replied queries became pairs.
func (g *Generator) GenerateRaw(nQueries int) ([]trace.Query, []trace.Reply) {
	queries := make([]trace.Query, 0, nQueries)
	expReplies := int(float64(nQueries)*answerProb) + 1
	replies := make([]trace.Reply, 0, expReplies)
	for i := 0; i < nQueries; i++ {
		src, interest := g.drawQuery()
		q := trace.Query{
			GUID:     g.nextGUID,
			Time:     g.pairCounter,
			Source:   src,
			Interest: interest,
			Text:     g.texts[interest],
		}
		g.nextGUID++
		if len(queries) > 0 && g.rng.Bool(duplicateGUIDFrac) {
			// A misbehaving client reuses an old GUID for a new query.
			q.GUID = queries[g.rng.Intn(len(queries))].GUID
		}
		queries = append(queries, q)
		if g.rng.Bool(answerProb) {
			from := g.drawReplier(interest)
			replies = append(replies, trace.Reply{
				GUID:     q.GUID,
				Time:     q.Time + 1,
				From:     from,
				Host:     from + 1<<20, // a peer beyond the neighbor, via from
				Filename: g.files[interest],
			})
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
