// Livecapture: the paper's §IV-A data path on a live protocol stack. A
// small Gnutella 0.4 network of real TCP servents runs on loopback, a
// modified vantage node in the middle captures the queries it relays and
// the query-hits that return, and routing rules are mined from the live
// capture — trace collection, import, and rule generation end to end.
package main

import (
	"fmt"
	"log"
	"time"

	"arq/internal/core"
	"arq/internal/vantage"
)

func main() {
	// Topology: two querying leaves -> vantage -> two content servers.
	//
	//   leafA ─┐                ┌─ serverX (topics 1,2)
	//          ├── vantage node ┤
	//   leafB ─┘                └─ serverY (topic 3)
	cap := vantage.NewCapture()
	mid, err := vantage.Listen("127.0.0.1:0", vantage.Options{Capture: cap})
	if err != nil {
		log.Fatal(err)
	}
	defer mid.Close()

	mk := func() *vantage.Servent {
		s, err := vantage.Listen("127.0.0.1:0", vantage.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	leafA, leafB, serverX, serverY := mk(), mk(), mk(), mk()
	defer leafA.Close()
	defer leafB.Close()
	defer serverX.Close()
	defer serverY.Close()

	serverX.Share("topic-001 keywords linux-distro.iso", 650_000)
	serverX.Share("topic-002 keywords compilers.tar.gz", 120_000)
	serverY.Share("topic-003 keywords lectures.ogg", 90_000)

	for _, s := range []*vantage.Servent{leafA, leafB, serverX, serverY} {
		if err := s.ConnectTo(mid.Addr()); err != nil {
			log.Fatal(err)
		}
	}
	for mid.NumConns() < 4 {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("5 servents up; vantage node %s has %d connections\n",
		mid.Addr(), mid.NumConns())

	// Leaves query their interests repeatedly (interest-based locality:
	// A cares about topics 1-2, B about topic 3).
	searches := []struct {
		who  *vantage.Servent
		text string
	}{
		{leafA, "topic-001 keywords"}, {leafA, "topic-002 keywords"},
		{leafB, "topic-003 keywords"},
	}
	hits := 0
	for round := 0; round < 6; round++ {
		for _, s := range searches {
			hit, err := s.who.Search(s.text, 7, 2*time.Second)
			if err != nil {
				log.Fatalf("search %q: %v", s.text, err)
			}
			hits++
			if round == 0 {
				fmt.Printf("  %-22q answered with %q\n", s.text, hit.Results[0].FileName)
			}
		}
	}
	fmt.Printf("issued %d searches, all answered over TCP\n\n", hits)

	// The vantage node saw everything: mine rules from its capture.
	qs, rs := cap.Snapshot()
	fmt.Printf("vantage capture: %d queries, %d replies\n", len(qs), len(rs))
	pairs := cap.Pairs()
	rules := core.GenerateRuleSet(pairs, 5)
	fmt.Printf("rules mined from the live capture (support >= 5):\n")
	rules.Range(func(k core.PairKey, support float64) bool {
		fmt.Printf("  {%s} -> {%s} (support %.0f)\n", k.Source(), k.Replier(), support)
		return true
	})
	res := rules.Test(pairs)
	fmt.Printf("\nself-test on the capture: coverage %.2f success %.2f\n",
		res.Coverage(), res.Success())
	fmt.Println("\neach leaf's queries consistently return through one server-side")
	fmt.Println("connection, so the vantage node can forward that leaf's future")
	fmt.Println("queries to just that neighbor instead of flooding all four.")
}
