// Package scenario composes a whole network experiment into one value: a
// topology, a content placement (communities, super-peer hubs, free
// riders, workload roles), the per-query semantics (TTL-exhaust or top-k
// early termination), and a deterministic dynamics schedule of churn and
// content shocks. The engine (peer/flat.Engine) and its oracle
// (peer.Engine) consume the same Scenario through the shared
// peer.QueryEngine / peer.DynamicEngine lifecycle, so one description
// drives both to identical results.
package scenario

import (
	"fmt"
	"sort"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/stats"
)

// EventKind selects what a scheduled dynamics event does to the network.
type EventKind int

const (
	// EventChurn replaces a fraction of peers: each victim drops its
	// edges, rejoins with fresh random ones, redraws its content and
	// profile, and gets a fresh router (learned state is lost).
	EventChurn EventKind = iota
	// EventShock redraws the content and profile of a fraction of peers
	// in place — the mass content reorganization of the trace
	// generator's regime shock, at message level.
	EventShock
)

// String names the kind for tables and logs.
func (k EventKind) String() string {
	if k == EventShock {
		return "shock"
	}
	return "churn"
}

// Event is one epoch-stamped dynamics event.
type Event struct {
	// Epoch is when the event fires: with Schedule.Period == 0 it fires
	// once, on entering exactly this epoch; with Period > 0 it fires on
	// every epoch e where e % Period == Epoch % Period.
	Epoch int
	Kind  EventKind
	// Frac is the fraction of nodes affected (at least one node).
	Frac float64
	// Degree is the rejoin degree for churned nodes (EventChurn only).
	Degree int
}

// Schedule is the deterministic dynamics timetable: epochs advance every
// QueriesPerEpoch issued queries, and due events fire on the epoch
// boundary, strictly between queries. A zero Schedule is a static
// network.
type Schedule struct {
	// QueriesPerEpoch sets the epoch length in issued queries; <= 0
	// disables dynamics entirely.
	QueriesPerEpoch int
	// Period makes every event recurring with this epoch period; 0 makes
	// each event one-shot at its Epoch.
	Period int
	Events []Event
}

// active reports whether the schedule ever fires an event.
func (s Schedule) active() bool {
	return s.QueriesPerEpoch > 0 && len(s.Events) > 0
}

// due reports whether ev fires on entering epoch e (e >= 1).
func (s Schedule) due(ev Event, e int) bool {
	if s.Period > 0 {
		return e%s.Period == ev.Epoch%s.Period
	}
	return e == ev.Epoch
}

// Scenario is the full experiment description every engine consumes.
type Scenario struct {
	Name string
	// Seed derives every stream the scenario owns: topology and
	// placement (Seed+100), workload draws (Seed+7), dynamics (Seed+13).
	Seed  uint64
	Nodes int
	// Topology selects the overlay generator: "gnutella" (default),
	// "random", or "smallworld".
	Topology string
	// Content parameterizes placement: communities, hubs, free riders,
	// and the client/provider/bystander role split.
	Content content.Config
	// Unclustered skips community (BFS-Voronoi) placement.
	Unclustered bool
	// Query is the per-query semantics (TTL, optional top-k budget).
	Query peer.QuerySpec
	// Dynamics schedules churn and content shocks between queries.
	Dynamics Schedule
}

// Build materializes the scenario's static substrate: the overlay graph
// and the content model, fully determined by the scenario value.
func (s Scenario) Build() (*overlay.Graph, *content.Model) {
	rng := stats.NewRNG(s.Seed + 100)
	var g *overlay.Graph
	switch s.Topology {
	case "random":
		g = overlay.Random(rng, s.Nodes, 4)
	case "smallworld":
		g = overlay.WattsStrogatz(rng, s.Nodes, 4, 0.1)
	default:
		g = overlay.GnutellaLike(rng, s.Nodes)
	}
	var m *content.Model
	if s.Unclustered {
		m = content.Build(rng.Split(), s.Nodes, s.Content)
	} else {
		m = content.BuildClustered(rng.Split(), g, s.Content)
	}
	return g, m
}

// Presets returns the scenario grid the arqbench "scenarios" section
// sweeps: the static baseline, community structure with super-peer hubs
// and a role split, a free-rider-heavy network, top-k early termination,
// and steady churn.
func Presets(n int, seed uint64) []Scenario {
	communities := content.DefaultConfig()
	communities.CommunityBias = 0.95
	communities.HubFrac = 0.05
	communities.HubBoost = 4
	communities.ClientFrac = 0.25
	communities.BystanderFrac = 0.10

	freeRider := content.DefaultConfig()
	freeRider.FreeRiderFrac = 0.75
	freeRider.ClientFrac = 0.20

	return []Scenario{
		{
			Name: "baseline", Seed: seed, Nodes: n,
			Content: content.DefaultConfig(),
			Query:   peer.QuerySpec{TTL: 7},
		},
		{
			Name: "communities", Seed: seed, Nodes: n,
			Content: communities,
			Query:   peer.QuerySpec{TTL: 7},
		},
		{
			Name: "free-rider-heavy", Seed: seed, Nodes: n,
			Content: freeRider,
			Query:   peer.QuerySpec{TTL: 7},
		},
		{
			Name: "top-k", Seed: seed, Nodes: n,
			Content: content.DefaultConfig(),
			Query:   peer.QuerySpec{TTL: 7, TopK: 3, Stop: peer.StopAtHit},
		},
		{
			Name: "churn", Seed: seed, Nodes: n,
			Content: content.DefaultConfig(),
			Query:   peer.QuerySpec{TTL: 7},
			Dynamics: Schedule{
				QueriesPerEpoch: 200,
				Period:          2,
				Events:          []Event{{Epoch: 1, Kind: EventChurn, Frac: 0.02, Degree: 3}},
			},
		},
	}
}

// Names lists the preset scenario names, in grid order.
func Names() []string {
	names := make([]string, 0, 5)
	for _, s := range Presets(100, 1) {
		names = append(names, s.Name)
	}
	return names
}

// ByName returns the preset with the given name at the requested size
// and seed, or an error naming the valid choices.
func ByName(name string, n int, seed uint64) (Scenario, error) {
	for _, s := range Presets(n, seed) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (valid: %v)", name, Names())
}

// sortedKeys returns the map's keys in ascending order, so patch
// notifications are issued in a deterministic order.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
