package vantage

import (
	"testing"
	"time"

	"arq/internal/fault"
	"arq/internal/transport"
)

// fateInjector applies one fixed Fate to every frame a servent sends.
type fateInjector struct{ fate fault.Fate }

func (f fateInjector) OnSend(int, int) fault.Fate { return f.fate }
func (fateInjector) Down(int) bool                { return false }
func (fateInjector) Tick()                        {}

// faultChain is chain() with a fault injector installed at one servent's
// socket boundary.
func faultChain(t *testing.T, n, faultAt int, inj fault.Injector) []*Servent {
	t.Helper()
	servents := make([]*Servent, n)
	for i := range servents {
		opts := Options{}
		if i == faultAt {
			opts.Net = &transport.Options{Fault: inj}
		}
		s, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		servents[i] = s
		t.Cleanup(s.Close)
	}
	for i := 1; i < n; i++ {
		if err := servents[i-1].ConnectTo(servents[i].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok := true
		for i, s := range servents {
			want := 2
			if i == 0 || i == n-1 {
				want = 1
			}
			if s.NumConns() < want {
				ok = false
			}
		}
		if ok {
			return servents
		}
		if time.Now().After(deadline) {
			t.Fatal("connections did not establish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A relay that drops every frame it sends severs the chain: content two
// hops away is unreachable, while the same topology without the injector
// finds it (TestSearchAcrossChain).
func TestServentWireDropSeversChain(t *testing.T) {
	ss := faultChain(t, 3, 1, fateInjector{fault.Fate{Drop: true}})
	ss[2].Share("topic-301 keywords far.dat", 1)
	if _, err := ss[0].Search("topic-301 keywords", 7, 300*time.Millisecond); err == nil {
		t.Fatal("search succeeded across a relay that drops everything")
	}
}

// A relay that corrupts every GUID it sends also severs the reverse path:
// the query forwards under the corrupted id, so the returning hit carries
// an id that matches nothing in the relay's reverse-route table and is
// dropped there as unroutable.
func TestServentWireCorruptSeversReversePath(t *testing.T) {
	ss := faultChain(t, 3, 1, fateInjector{fault.Fate{Corrupt: true}})
	ss[2].Share("topic-302 keywords far.dat", 1)
	if _, err := ss[0].Search("topic-302 keywords", 7, 300*time.Millisecond); err == nil {
		t.Fatal("search succeeded despite GUID corruption at the relay")
	}
	if ss[1].m.HitsDropped.Value() == 0 {
		t.Fatal("the corrupted hit was not dropped as unroutable at the relay")
	}
}

// A relay that sends every frame twice must not break search: GUID
// duplicate suppression downstream absorbs the copies (visibly, via
// vantage.dup_queries_dropped) and the hit still routes home.
func TestServentWireDuplicateIsSuppressed(t *testing.T) {
	ss := faultChain(t, 3, 1, fateInjector{fault.Fate{Duplicate: true}})
	ss[2].Share("topic-303 keywords far.dat", 1)
	if _, err := ss[0].Search("topic-303 keywords", 7, 2*time.Second); err != nil {
		t.Fatalf("search failed under duplication: %v", err)
	}
	waitUntil(t, func() bool { return ss[2].m.DupDrops.Value() > 0 }, "the duplicated query to be suppressed downstream")
}
