package routing

import (
	"arq/internal/peer"
	"arq/internal/stats"
	"arq/internal/trace"
)

// Searcher issues one content search and reports its network cost. It is
// the driver-level abstraction above peer.Router: some techniques
// (expanding ring, shortcut probing) need control over whole search
// attempts rather than per-hop forwarding.
type Searcher interface {
	Name() string
	Search(origin int, category trace.InterestID) peer.Stats
}

// OneShot runs a single query with a fixed TTL through an engine. A
// positive TopK turns every search into a top-k early-terminating query
// (see peer.QuerySpec).
type OneShot struct {
	Label string
	E     peer.QueryEngine
	TTL   int
	TopK  int
}

// Name implements Searcher.
func (o *OneShot) Name() string { return o.Label }

// Search implements Searcher.
func (o *OneShot) Search(origin int, category trace.InterestID) peer.Stats {
	return o.E.RunQuerySpec(origin, category, peer.QuerySpec{TTL: o.TTL, TopK: o.TopK})
}

// ExpandingRing implements the expanding-ring search of Lv et al. [5]: the
// origin floods with TTL = Start and, while no hit is found, reissues the
// query with TTL increased by Step up to Max. Costs accumulate across
// attempts — nearby nodes receive the query repeatedly, which is exactly
// the overhead the paper's related-work section points out.
type ExpandingRing struct {
	E           peer.QueryEngine
	Start, Step int
	Max         int
	TopK        int
}

// Name implements Searcher.
func (e *ExpandingRing) Name() string { return "expanding-ring" }

// Search implements Searcher.
func (e *ExpandingRing) Search(origin int, category trace.InterestID) peer.Stats {
	var acc peer.Stats
	for ttl := e.Start; ttl <= e.Max; ttl += e.Step {
		st := e.E.RunQuerySpec(origin, category, peer.QuerySpec{TTL: ttl, TopK: e.TopK})
		acc.QueryMessages += st.QueryMessages
		acc.HitMessages += st.HitMessages
		acc.Duplicates += st.Duplicates
		acc.NodesReached += st.NodesReached
		if st.Found {
			acc.Found = true
			acc.Hits = st.Hits
			acc.FirstHitHops = st.FirstHitHops
			acc.HitNodes = st.HitNodes
			return acc
		}
	}
	return acc
}

// AssocTwoPhase deploys the association-rule router the way §III-B
// describes: queries travel along rules only (strict mode), and when the
// rule-routed attempt returns nothing the origin reverts to flooding. The
// flood reissue also retrains the rules for next time. Requires an engine
// whose routers are strict Assoc instances.
type AssocTwoPhase struct {
	E    peer.QueryEngine
	TTL  int
	TopK int
}

// Name implements Searcher.
func (a *AssocTwoPhase) Name() string { return "assoc-two-phase" }

// Search implements Searcher.
func (a *AssocTwoPhase) Search(origin int, category trace.InterestID) peer.Stats {
	st := a.E.RunQuerySpec(origin, category, peer.QuerySpec{TTL: a.TTL, TopK: a.TopK})
	if st.Found {
		return st
	}
	fl := a.E.RunQuerySpec(origin, category, peer.QuerySpec{TTL: a.TTL, TopK: a.TopK, FloodPhase: true})
	fl.QueryMessages += st.QueryMessages
	fl.HitMessages += st.HitMessages
	fl.Duplicates += st.Duplicates
	fl.NodesReached += st.NodesReached
	return fl
}

// Shortcuts implements interest-based shortcuts [7] on top of a flooding
// engine: each origin remembers nodes that previously satisfied queries in
// a category and probes up to MaxProbe of them directly (2 messages per
// probe: request and response) before falling back to a flood. Successful
// floods refresh the shortcut list.
type Shortcuts struct {
	E        peer.QueryEngine
	TTL      int
	MaxProbe int
	MaxKeep  int
	TopK     int

	// lists[origin][category] = candidate target nodes, most recent first.
	lists map[int]map[trace.InterestID][]int32
}

// NewShortcuts wraps an engine with per-origin shortcut lists.
func NewShortcuts(e peer.QueryEngine, ttl, maxProbe, maxKeep int) *Shortcuts {
	return &Shortcuts{
		E: e, TTL: ttl, MaxProbe: maxProbe, MaxKeep: maxKeep,
		lists: make(map[int]map[trace.InterestID][]int32),
	}
}

// Name implements Searcher.
func (s *Shortcuts) Name() string { return "interest-shortcuts" }

// Search implements Searcher.
func (s *Shortcuts) Search(origin int, category trace.InterestID) peer.Stats {
	var st peer.Stats
	for i, target := range s.shortcutsFor(origin, category) {
		if i >= s.MaxProbe {
			break
		}
		st.QueryMessages++ // direct probe
		st.HitMessages++   // probe response
		if s.E.ContentModel().Hosts(int(target), category) {
			st.Found = true
			st.Hits = 1
			st.FirstHitHops = 1
			st.NodesReached++
			s.remember(origin, category, target)
			return st
		}
		st.NodesReached++
	}
	// Shortcut miss: flood and learn from the result.
	fl := s.E.RunQuerySpec(origin, category, peer.QuerySpec{TTL: s.TTL, TopK: s.TopK})
	fl.QueryMessages += st.QueryMessages
	fl.HitMessages += st.HitMessages
	fl.NodesReached += st.NodesReached
	for _, h := range fl.HitNodes {
		s.remember(origin, category, h)
	}
	return fl
}

func (s *Shortcuts) shortcutsFor(origin int, category trace.InterestID) []int32 {
	return s.lists[origin][category]
}

func (s *Shortcuts) remember(origin int, category trace.InterestID, target int32) {
	m := s.lists[origin]
	if m == nil {
		m = make(map[trace.InterestID][]int32)
		s.lists[origin] = m
	}
	lst := m[category]
	// Move-to-front without duplicates.
	out := make([]int32, 0, len(lst)+1)
	out = append(out, target)
	for _, t := range lst {
		if t != target {
			out = append(out, t)
		}
	}
	if s.MaxKeep > 0 && len(out) > s.MaxKeep {
		out = out[:s.MaxKeep]
	}
	m[category] = out
}

// RunWorkload drives nQueries through a Searcher: origins uniform,
// categories from each origin's interest profile — the workload all
// network experiments share.
func RunWorkload(rng *stats.RNG, s Searcher, e peer.QueryEngine, nQueries int) []peer.Stats {
	out := make([]peer.Stats, 0, nQueries)
	for _, j := range peer.DrawWorkload(rng, e.ContentModel(), e.Nodes(), nQueries) {
		out = append(out, s.Search(j.Origin, j.Category))
	}
	return out
}
