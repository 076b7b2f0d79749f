package scenario_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the churn scenario golden file")

// The churn golden pins the flat engine to the oracle on one dynamic
// scenario: peer.Engine, which reads the live graph and content model,
// and flat.Engine, which patches its snapshots, must agree on every
// Stats field query by query while peers churn. Regenerate with:
// go test ./internal/scenario -run TestChurnGolden -update
const (
	churnSeed    = 11
	churnN       = 120
	churnQueries = 120
)

func churnScenario() scenario.Scenario {
	sc, err := scenario.ByName("churn", churnN, churnSeed)
	if err != nil {
		panic(err)
	}
	// Tight epochs so the 120-query run crosses several churn events,
	// and a TTL that floods the whole overlay.
	sc.Query.TTL = churnN
	sc.Dynamics.QueriesPerEpoch = 25
	sc.Dynamics.Period = 1
	sc.Dynamics.Events = []scenario.Event{{Epoch: 0, Kind: scenario.EventChurn, Frac: 0.03, Degree: 3}}
	return sc
}

type qrec struct {
	Found  bool    `json:"found"`
	Hits   int     `json:"hits"`
	FHH    int     `json:"first_hit_hops"`
	QMsgs  int     `json:"query_msgs"`
	HMsgs  int     `json:"hit_msgs"`
	Dups   int     `json:"duplicates"`
	Reach  int     `json:"nodes_reached"`
	HitsAt []int32 `json:"hit_nodes,omitempty"`
}

func toRec(s peer.Stats) qrec {
	return qrec{Found: s.Found, Hits: s.Hits, FHH: s.FirstHitHops,
		QMsgs: s.QueryMessages, HMsgs: s.HitMessages,
		Dups: s.Duplicates, Reach: s.NodesReached, HitsAt: s.HitNodes}
}

// runChurn builds a fresh substrate (the runner mutates it, so every
// engine needs its own copy — Build is deterministic, so all copies are
// identical) and drives the churn scenario through a flood searcher.
func runChurn(mk func(sc scenario.Scenario) (peer.QueryEngine, *scenario.Runner)) []peer.Stats {
	sc := churnScenario()
	_, r := mk(sc)
	return r.Block(churnQueries)
}

func TestChurnGolden(t *testing.T) {
	flood := func(u int) peer.Router { return routing.Flood{} }

	mkSeq := func(sc scenario.Scenario) (peer.QueryEngine, *scenario.Runner) {
		g, m := sc.Build()
		e := peer.NewEngine(g, m, flood)
		s := &routing.OneShot{Label: "flood", E: e, TTL: sc.Query.TTL, TopK: sc.Query.TopK, Stop: sc.Query.Stop}
		return e, scenario.NewRunner(sc, g, m, e, s, flood)
	}
	mkFlat := func(sc scenario.Scenario) (peer.QueryEngine, *scenario.Runner) {
		g, m := sc.Build()
		e := flat.NewEngine(g, m, flood)
		s := &routing.OneShot{Label: "flood", E: e, TTL: sc.Query.TTL, TopK: sc.Query.TopK, Stop: sc.Query.Stop}
		return e, scenario.NewRunner(sc, g, m, e, s, flood)
	}
	seq := runChurn(mkSeq)
	fl := runChurn(mkFlat)

	recs := make([]qrec, len(seq))
	for i := range seq {
		recs[i] = toRec(seq[i])
		if got := toRec(fl[i]); !recEqual(recs[i], got) {
			t.Fatalf("query %d: peer.Engine %+v != flat.Engine %+v", i, recs[i], got)
		}
	}

	buf, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')

	path := filepath.Join("testdata", "churn_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(buf))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("churn golden drifted: got %d bytes, want %d; rerun with -update and inspect the diff", len(buf), len(want))
	}
}

func recEqual(a, b qrec) bool {
	if a.Found != b.Found || a.Hits != b.Hits || a.FHH != b.FHH ||
		a.QMsgs != b.QMsgs || a.HMsgs != b.HMsgs || a.Dups != b.Dups ||
		a.Reach != b.Reach || len(a.HitsAt) != len(b.HitsAt) {
		return false
	}
	for i := range a.HitsAt {
		if a.HitsAt[i] != b.HitsAt[i] {
			return false
		}
	}
	return true
}
