// Package content models shared content and query workloads for the
// message-level network experiments: files grouped into interest
// categories, Zipf-skewed replication (popular content is hosted by more
// peers), per-peer interest profiles, and keyword-style query matching.
// It is the network-side counterpart of the interest model the trace
// generator applies at a single vantage node.
package content

import (
	"fmt"

	"arq/internal/stats"
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
	// FilesPerNode is the mean number of files a peer shares.
	FilesPerNode int
	// FreeRiderFrac is the fraction of peers sharing nothing — a
	// well-measured property of deployed file-sharing networks.
	FreeRiderFrac float64
	// ProfileSize is how many categories a peer's queries come from.
	ProfileSize int
	// Communities and CommunityBias control interest-based locality for
	// BuildClustered: the overlay is partitioned into Communities regions
	// (BFS Voronoi around random seeds), each with its own slice of
	// categories, and a node draws each profile/hosted category from its
	// community's slice with probability CommunityBias (else globally).
	// Interest-based locality — nearby peers sharing interests — is the
	// premise the paper's rules exploit (§III-B, [7][8][9]).
	Communities   int
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

// Role classifies a node's behaviour in the workload.
type Role uint8

const (
	// RoleProvider hosts content and issues queries — the default for
	// every node when the role fractions are zero.
	RoleProvider Role = iota
	// RoleHub is a super-peer provider hosting HubBoost times the usual
	// files; hubs never free-ride.
	RoleHub
	// RoleClient issues queries but shares nothing.
	RoleClient
	// RoleBystander only relays: no content, no queries.
	RoleBystander
)

// issuesQueries reports whether the role originates queries.
func (r Role) issuesQueries() bool { return r != RoleBystander }

// String names the role for tables and logs.
func (r Role) String() string {
	switch r {
	case RoleHub:
		return "hub"
	case RoleClient:
		return "client"
	case RoleBystander:
		return "bystander"
	}
	return "provider"
}

// DefaultConfig returns the placement used by the network experiments.
func DefaultConfig() Config {
	return Config{
		Categories:     200,
		PopularityZipf: 0.9,
		FilesPerNode:   8,
		FreeRiderFrac:  0.25,
		ProfileSize:    4,
		Communities:    25,
		CommunityBias:  0.8,
	}
}

// Model holds content placement and interest profiles for every node of an
// overlay. It is immutable after Build and safe for concurrent reads.
type Model struct {
	cfg      Config
	pop      *stats.Zipf
	hosts    [][]trace.InterestID // node -> categories it hosts (sorted sets not needed; small)
	profiles [][]trace.InterestID // node -> categories it queries
	comm     []int                // node -> community label (nil when unclustered)
	roles    []Role               // node -> workload role (nil when the split is disabled)
	origins  []int32              // query-issuing nodes (nil = all nodes)
}

// Build places content on n nodes without topology awareness. Placement
// draws each node's files' categories from the Zipf popularity, so popular
// categories end up widely replicated and the tail is rare — the regime
// where blind flooding is expensive and locality-aware routing pays.
func Build(rng *stats.RNG, n int, cfg Config) *Model {
	return build(rng, n, cfg, nil)
}

// BuildClustered places content with interest-based locality over graph g:
// nodes are partitioned into cfg.Communities BFS-Voronoi regions, each
// community holds a contiguous slice of the category space, and each
// node's hosted and queried categories come from its community's slice
// with probability cfg.CommunityBias. Queries from one direction of the
// overlay therefore tend to want — and find — the same content, which is
// the locality the association-rule router exploits.
func BuildClustered(rng *stats.RNG, g NeighborGraph, cfg Config) *Model {
	comm := communities(rng, g, cfg.Communities)
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
func communities(rng *stats.RNG, g NeighborGraph, k int) []int {
	n := g.N()
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	var queue []int
	for c, u := range stats.SampleWithoutReplacement(rng, n, k) {
		label[u] = c
		queue = append(queue, u)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if label[w] < 0 {
				label[w] = label[u]
				queue = append(queue, int(w))
			}
		}
	}
	// Disconnected leftovers (shouldn't happen on connected overlays).
	for i := range label {
		if label[i] < 0 {
			label[i] = rng.Intn(k)
		}
	}
	return label
}

// clampConfig repairs out-of-range knobs so any config builds a usable
// model: probability fields land in [0,1] (they feed rng.Bool draws)
// and the count fields stay positive (a zero ProfileSize would leave
// DrawQuery with nothing to draw from). Defaults pass through untouched.
func clampConfig(cfg Config) Config {
	if cfg.Categories <= 0 {
		return DefaultConfig()
	}
	if cfg.FilesPerNode <= 0 {
		cfg.FilesPerNode = 1
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

func build(rng *stats.RNG, n int, cfg Config, comm []int) *Model {
	cfg = clampConfig(cfg)
	m := &Model{
		cfg:      cfg,
		pop:      stats.NewZipf(cfg.Categories, cfg.PopularityZipf),
		hosts:    make([][]trace.InterestID, n),
		profiles: make([][]trace.InterestID, n),
		comm:     comm,
	}
	if cfg.ClientFrac > 0 || cfg.BystanderFrac > 0 || cfg.HubFrac > 0 {
		m.roles = make([]Role, n)
		for u := 0; u < n; u++ {
			m.roles[u] = drawRole(rng, cfg)
		}
	}
	for u := 0; u < n; u++ {
		m.Reassign(rng, u)
	}
	if m.roles != nil {
		for u := 0; u < n; u++ {
			if m.roles[u].issuesQueries() {
				m.origins = append(m.origins, int32(u))
			}
		}
	}
	return m
}

// drawRole assigns one node's role with a single uniform draw, carving
// [0,1) into hub / client / bystander / provider bands.
func drawRole(rng *stats.RNG, cfg Config) Role {
	r := rng.Float64()
	switch {
	case r < cfg.HubFrac:
		return RoleHub
	case r < cfg.HubFrac+cfg.ClientFrac:
		return RoleClient
	case r < cfg.HubFrac+cfg.ClientFrac+cfg.BystanderFrac:
		return RoleBystander
	}
	return RoleProvider
}

// draw picks a category for node u: from its community's slice of the
// category space with probability CommunityBias, else globally. The Zipf
// rank is mapped into the community slice so each community has its own
// popular head.
func (m *Model) draw(rng *stats.RNG, u int) trace.InterestID {
	rank := m.pop.Sample(rng)
	if m.comm == nil || !rng.Bool(m.cfg.CommunityBias) {
		return trace.InterestID(rank)
	}
	nComm := m.cfg.Communities
	if nComm <= 0 {
		nComm = 1
	}
	per := m.cfg.Categories / nComm
	if per == 0 {
		per = 1
	}
	return trace.InterestID((m.comm[u]*per + rank%per) % m.cfg.Categories)
}

// Reassign redraws node u's shared content and interest profile — the
// content side of a peer leaving and a fresh one taking its place (churn).
// Not safe concurrently with readers; pause queries while churning.
func (m *Model) Reassign(rng *stats.RNG, u int) {
	m.hosts[u] = nil
	role := m.Role(u)
	share := false
	switch role {
	case RoleHub:
		share = true // super-peers never free-ride
	case RoleProvider:
		share = !rng.Bool(m.cfg.FreeRiderFrac)
	}
	if share {
		nf := 1 + rng.Intn(2*m.cfg.FilesPerNode)
		if role == RoleHub {
			nf *= m.hubBoost()
		}
		seen := map[trace.InterestID]bool{}
		for i := 0; i < nf; i++ {
			c := m.draw(rng, u)
			if !seen[c] {
				seen[c] = true
				m.hosts[u] = append(m.hosts[u], c)
			}
		}
	}
	prof := make([]trace.InterestID, m.cfg.ProfileSize)
	for i := range prof {
		prof[i] = m.draw(rng, u)
	}
	m.profiles[u] = prof
}

// Explicit builds a model with exactly the given hosted categories per
// node and uniform single-category profiles — for tests and examples that
// need full control over placement.
func Explicit(n, categories int, hosts map[int][]trace.InterestID) *Model {
	cfg := DefaultConfig()
	cfg.Categories = categories
	m := &Model{
		cfg:      cfg,
		pop:      stats.NewZipf(categories, 0),
		hosts:    make([][]trace.InterestID, n),
		profiles: make([][]trace.InterestID, n),
	}
	for u := 0; u < n; u++ {
		m.hosts[u] = append(m.hosts[u], hosts[u]...)
		m.profiles[u] = []trace.InterestID{trace.InterestID(u % categories)}
	}
	return m
}

// Categories returns the number of interest categories.
func (m *Model) Categories() int { return m.cfg.Categories }

// Hosts reports whether node u shares content in category c.
func (m *Model) Hosts(u int, c trace.InterestID) bool {
	for _, h := range m.hosts[u] {
		if h == c {
			return true
		}
	}
	return false
}

// HostedCategories returns the categories node u shares. The returned
// slice is owned by the model.
func (m *Model) HostedCategories(u int) []trace.InterestID { return m.hosts[u] }

func (m *Model) hubBoost() int {
	if m.cfg.HubBoost > 0 {
		return m.cfg.HubBoost
	}
	return 4
}

// Role returns node u's workload role; RoleProvider for every node when
// the role split is disabled.
func (m *Model) Role(u int) Role {
	if m.roles == nil {
		return RoleProvider
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
	prof := m.profiles[u]
	return prof[rng.Intn(len(prof))]
}

// FileName renders a stable display name for a category's content.
func FileName(c trace.InterestID) string {
	return fmt.Sprintf("category-%03d/archive.dat", c)
}
