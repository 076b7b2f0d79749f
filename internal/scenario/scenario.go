// Package scenario composes a whole network experiment into one value: a
// Gnutella-like power-law overlay, a clustered content placement
// (communities, super-peer hubs, free riders, workload roles), the
// per-query semantics (TTL-exhaust or top-k early termination), and a
// deterministic churn schedule. The engine (peer/flat.Engine) and its
// test oracle (peer/oracle.Engine) consume the same Scenario through the
// shared peer.QueryEngine / peer.DynamicEngine lifecycle, so one
// description drives both to identical results.
package scenario

import (
	"fmt"
	"sort"

	"arq/internal/content"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/stats"
)

// Event is one epoch-stamped churn event: a fraction of peers is
// replaced, each victim dropping its edges, rejoining with fresh random
// ones, redrawing its content and profile, and getting a fresh router
// (learned state is lost).
type Event struct {
	// Epoch is when the event fires: with Schedule.Period == 0 it fires
	// once, on entering exactly this epoch; with Period > 0 it fires on
	// every epoch e where e % Period == Epoch % Period.
	Epoch int
	// Frac is the fraction of nodes churned (at least one node).
	Frac float64
	// Degree is the rejoin degree of a churned node.
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
	// Content parameterizes placement: community bias, hubs, free riders,
	// and the client/provider/bystander role split.
	Content content.Config
	// Query is the per-query semantics (TTL, optional top-k budget).
	Query peer.QuerySpec
	// Dynamics schedules churn between queries.
	Dynamics Schedule
}

// Build materializes the scenario's static substrate, fully determined by
// the scenario value: a Gnutella-like overlay and the content clustered
// over it.
func (s Scenario) Build() (*overlay.Graph, *content.Model) {
	rng := stats.NewRNG(s.Seed + 100)
	g := overlay.GnutellaLike(rng, s.Nodes)
	return g, content.BuildClustered(rng.Split(), g, s.Content)
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
			Query:   peer.QuerySpec{TTL: 7, TopK: 3},
		},
		{
			Name: "churn", Seed: seed, Nodes: n,
			Content: content.DefaultConfig(),
			Query:   peer.QuerySpec{TTL: 7},
			Dynamics: Schedule{
				QueriesPerEpoch: 200,
				Period:          2,
				Events:          []Event{{Epoch: 1, Frac: 0.02, Degree: 3}},
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
