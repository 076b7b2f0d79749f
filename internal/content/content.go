// Package content models shared content and query workloads for the
// message-level network experiments: files grouped into interest
// categories, Zipf-skewed replication (popular content is hosted by more
// peers), per-peer interest profiles, and keyword-style query matching.
// It is the network-side counterpart of the interest model the trace
// generator applies at a single vantage node.
package content

import (
	"slices"

	"arq/internal/stats"
	"arq/internal/stream"
	"arq/internal/trace"
)

// File is a shared item: a name plus the interest category it belongs to.
type File struct {
	Name     string
	Category trace.InterestID
}

// Config parameterizes content placement and the query workload.
type Config struct {
	// Categories is the number of interest categories.
	Categories int
	// PopularityZipf skews which categories are replicated and queried.
	PopularityZipf float64
	// FreeRiderFrac is the fraction of peers sharing nothing — a
	// well-measured property of deployed file-sharing networks.
	FreeRiderFrac float64
	// ProfileSize is how many categories a peer's queries come from.
	ProfileSize int
	// CommunityBias controls interest-based locality: a node draws each
	// profile/hosted category from its community's slice of the category
	// space with probability CommunityBias (else globally). Interest-based
	// locality — nearby peers sharing interests — is the premise the
	// paper's rules exploit (§III-B, [7][8][9]); 0 is uniform placement.
	CommunityBias float64
	// ClientFrac, BystanderFrac, and HubFrac split nodes into workload
	// roles (the group model of go-hop-exchange's testplans): clients
	// issue queries but share nothing, bystanders only relay (no
	// content, no queries), and hubs are super-peer providers hosting
	// HubBoost times the usual file draw. The remainder are ordinary
	// providers. All zero (the default) disables the split entirely —
	// every node is a provider, origins are uniform, and the RNG stream
	// is exactly the historical one.
	ClientFrac    float64
	BystanderFrac float64
	HubFrac       float64
	// HubBoost multiplies a hub's file-count draw (0 = 4).
	HubBoost int
}

// role classifies a node's behaviour in the workload.
type role uint8

const (
	// roleProvider hosts content and issues queries: every node's role
	// when the role fractions are zero.
	roleProvider role = iota
	// roleHub is a super-peer provider hosting HubBoost times the usual
	// files; hubs never free-ride.
	roleHub
	// roleClient issues queries but shares nothing.
	roleClient
	// roleBystander only relays: no content, no queries.
	roleBystander
)

// The placement shape every experiment runs: a sharing peer draws 1 to
// 2·filesPerNode files (about filesPerNode), and the overlay is partitioned
// into communityCount BFS-Voronoi regions, each with its own slice of the
// category space.
const (
	filesPerNode   = 8
	communityCount = 25
)

// DefaultConfig returns the placement used by the network experiments.
func DefaultConfig() Config {
	return Config{
		Categories:     200,
		PopularityZipf: 0.9,
		FreeRiderFrac:  0.25,
		ProfileSize:    4,
		CommunityBias:  0.8,
	}
}

// Model holds content placement and interest profiles for every node of an
// overlay, in flat arrays: every node's hosted categories are one run of a
// stream.Arena, every profile one ProfileSize stride of another array. It
// is immutable after Build apart from Reassign, and safe for concurrent
// reads.
type Model struct {
	cfg Config
	pop *stats.Zipf
	// hosted holds node u's hosted categories, in draw order, as its run.
	hosted   stream.Arena[trace.InterestID]
	profiles []trace.InterestID // node u queries profiles[u*ProfileSize:][:ProfileSize]
	comm     []int32            // node -> community label
	roles    []role             // node -> workload role (nil when the split is disabled)
	origins  []int32            // query-issuing nodes (nil = all nodes)
}

// BuildClustered places content with interest-based locality over graph g:
// nodes are partitioned into communityCount BFS-Voronoi regions, each
// community holds a contiguous slice of the category space, and each
// node's hosted and queried categories come from its community's slice
// with probability cfg.CommunityBias, else from the global Zipf
// popularity — so popular categories end up widely replicated and the
// tail is rare, the regime where blind flooding is expensive and
// locality-aware routing pays. Queries from one direction of the overlay
// therefore tend to want — and find — the same content, which is the
// locality the association-rule router exploits.
func BuildClustered(rng *stats.RNG, g NeighborGraph, cfg Config) *Model {
	comm := communities(rng, g, communityCount)
	return build(rng, g.N(), cfg, comm)
}

// NeighborGraph is the small overlay surface content placement needs,
// satisfied by *overlay.Graph (kept as an interface to avoid a dependency
// cycle and to ease testing).
type NeighborGraph interface {
	N() int
	Neighbors(u int) []int32
}

// communities BFS-grows regions from k random seeds, labeling every node.
func communities(rng *stats.RNG, g NeighborGraph, k int) []int32 {
	n := g.N()
	if k > n {
		k = n
	}
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	queue := make([]int32, 0, n)
	for c, u := range stats.SampleWithoutReplacement(rng, n, k) {
		label[u] = int32(c)
		queue = append(queue, int32(u))
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.Neighbors(int(u)) {
			if label[w] < 0 {
				label[w] = label[u]
				queue = append(queue, w)
			}
		}
	}
	// Disconnected leftovers (shouldn't happen on connected overlays).
	for i := range label {
		if label[i] < 0 {
			label[i] = int32(rng.Intn(k))
		}
	}
	return label
}

// clampConfig repairs out-of-range knobs so any config builds a usable
// model: probability fields land in [0,1] (they feed rng.Bool draws)
// and ProfileSize stays positive (zero would leave DrawQuery with nothing
// to draw from). Defaults pass through untouched.
func clampConfig(cfg Config) Config {
	if cfg.Categories <= 0 {
		return DefaultConfig()
	}
	if cfg.ProfileSize <= 0 {
		cfg.ProfileSize = 1
	}
	for _, p := range []*float64{
		&cfg.FreeRiderFrac, &cfg.CommunityBias,
		&cfg.ClientFrac, &cfg.BystanderFrac, &cfg.HubFrac,
	} {
		if *p < 0 {
			*p = 0
		}
		if *p > 1 {
			*p = 1
		}
	}
	return cfg
}

func build(rng *stats.RNG, n int, cfg Config, comm []int32) *Model {
	cfg = clampConfig(cfg)
	m := &Model{
		cfg:      cfg,
		pop:      stats.NewZipf(cfg.Categories, cfg.PopularityZipf),
		hosted:   stream.NewArena[trace.InterestID](n),
		profiles: make([]trace.InterestID, n*cfg.ProfileSize),
		comm:     comm,
	}
	if cfg.ClientFrac > 0 || cfg.BystanderFrac > 0 || cfg.HubFrac > 0 {
		m.roles = make([]role, n)
		for u := 0; u < n; u++ {
			m.roles[u] = drawRole(rng, cfg)
		}
	}
	for u := 0; u < n; u++ {
		m.Reassign(rng, u)
	}
	if m.roles != nil {
		for u := 0; u < n; u++ {
			if m.roles[u] != roleBystander {
				m.origins = append(m.origins, int32(u))
			}
		}
	}
	return m
}

// drawRole assigns one node's role with a single uniform draw, carving
// [0,1) into hub / client / bystander / provider bands.
func drawRole(rng *stats.RNG, cfg Config) role {
	r := rng.Float64()
	switch {
	case r < cfg.HubFrac:
		return roleHub
	case r < cfg.HubFrac+cfg.ClientFrac:
		return roleClient
	case r < cfg.HubFrac+cfg.ClientFrac+cfg.BystanderFrac:
		return roleBystander
	}
	return roleProvider
}

// draw picks a category for node u: from its community's slice of the
// category space with probability CommunityBias, else globally. The Zipf
// rank is mapped into the community slice so each community has its own
// popular head.
func (m *Model) draw(rng *stats.RNG, u int) trace.InterestID {
	rank := m.pop.Sample(rng)
	if !rng.Bool(m.cfg.CommunityBias) {
		return trace.InterestID(rank)
	}
	per := m.cfg.Categories / communityCount
	if per == 0 {
		per = 1
	}
	return trace.InterestID((int(m.comm[u])*per + rank%per) % m.cfg.Categories)
}

// Reassign redraws node u's shared content and interest profile — the
// content side of a peer leaving and a fresh one taking its place (churn).
// Not safe concurrently with readers; pause queries while churning.
func (m *Model) Reassign(rng *stats.RNG, u int) {
	kind := m.role(u)
	share := false
	switch kind {
	case roleHub:
		share = true // super-peers never free-ride
	case roleProvider:
		share = !rng.Bool(m.cfg.FreeRiderFrac)
	}
	// The new set is staged on the arena's tail, deduplicated against
	// itself, then placed.
	start := m.hosted.Len()
	if share {
		nf := 1 + rng.Intn(2*filesPerNode)
		if kind == roleHub {
			nf *= m.hubBoost()
		}
		for i := 0; i < nf; i++ {
			if c := m.draw(rng, u); !slices.Contains(m.hosted.Tail(start), c) {
				m.hosted.Stage(c)
			}
		}
	}
	m.hosted.Place(u, start)
	prof := m.profile(u)
	for i := range prof {
		prof[i] = m.draw(rng, u)
	}
}

// profile is node u's interest profile, in place.
func (m *Model) profile(u int) []trace.InterestID {
	ps := m.cfg.ProfileSize
	return m.profiles[u*ps : (u+1)*ps]
}

// Explicit builds a model with exactly the given hosted categories per
// node, uniform single-category profiles and every node in community 0 —
// for tests and examples that need full control over placement.
func Explicit(n, categories int, hosts map[int][]trace.InterestID) *Model {
	cfg := DefaultConfig()
	cfg.Categories = categories
	cfg.ProfileSize = 1
	m := &Model{
		cfg:      cfg,
		pop:      stats.NewZipf(categories, 0),
		hosted:   stream.NewArena[trace.InterestID](n),
		profiles: make([]trace.InterestID, n),
		comm:     make([]int32, n),
	}
	for u := 0; u < n; u++ {
		m.hosted.Stage(hosts[u]...)
		m.hosted.Place(u, m.hosted.Len()-len(hosts[u]))
		m.profiles[u] = trace.InterestID(u % categories)
	}
	return m
}

// Categories returns the number of interest categories.
func (m *Model) Categories() int { return m.cfg.Categories }

// Hosts reports whether node u shares content in category c.
func (m *Model) Hosts(u int, c trace.InterestID) bool {
	return slices.Contains(m.HostedCategories(u), c)
}

// HostedCategories returns the categories node u shares, in draw order.
// The returned slice is owned by the model and capped at the run's end;
// a Reassign may overwrite it.
func (m *Model) HostedCategories(u int) []trace.InterestID {
	return m.hosted.Row(u)
}

func (m *Model) hubBoost() int {
	if m.cfg.HubBoost > 0 {
		return m.cfg.HubBoost
	}
	return 4
}

// role returns node u's workload role; roleProvider for every node when
// the role split is disabled.
func (m *Model) role(u int) role {
	if m.roles == nil {
		return roleProvider
	}
	return m.roles[u]
}

// DrawOrigin draws the next query's origin: uniform over all n nodes
// without a role split (a single rng.Intn(n) draw — the exact historical
// stream), else uniform over the query-issuing nodes (everyone but
// bystanders).
func (m *Model) DrawOrigin(rng *stats.RNG, n int) int {
	if len(m.origins) == 0 {
		return rng.Intn(n)
	}
	return int(m.origins[rng.Intn(len(m.origins))])
}

// DrawQuery picks the category node u queries next, from its profile.
func (m *Model) DrawQuery(rng *stats.RNG, u int) trace.InterestID {
	prof := m.profile(u)
	return prof[rng.Intn(len(prof))]
}
