package main

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"arq/internal/peer"
	"arq/internal/scenario"
	"arq/internal/stats"
)

// exec runs arqnet in process and returns its exit status, its result
// (stdout less the headers that echo flags back) and its stderr. The
// socket modes, netcluster and listen, only go through parse: a test
// starts no process and opens no socket.
func exec(t *testing.T, args ...string) (code int, result, stderr string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("arqnet %s panicked: %v", strings.Join(args, " "), p)
		}
	}()
	var o options
	var e bytes.Buffer
	if _, modes, err := o.parse(args, io.Discard); err == nil && (modes[0] == "netcluster" || modes[0] == "listen") {
		return 0, "", ""
	}
	var out bytes.Buffer
	code = run(args, &out, &e)
	lines := strings.SplitAfter(out.String(), "\n")
	lines = slices.DeleteFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "== ") || strings.HasPrefix(l, "chaos soak:")
	})
	return code, strings.Join(lines, ""), e.String()
}

// refused fails the test unless args exit 2 with one line on stderr.
func refused(t *testing.T, args ...string) string {
	t.Helper()
	code, _, e := exec(t, args...)
	if code != 2 || strings.Count(e, "\n") != 1 {
		t.Errorf("arqnet %s: exit %d, stderr %q; want exit 2 and one line", strings.Join(args, " "), code, e)
	}
	return e
}

// TestFlagWalk walks every flag with a least value, and -nodes through
// each topology's, through -1, 0, one below it and the least value
// itself, in every mode: below the least value a run exits 2 with one
// line; at it, a run either exits 2 with one line (its mode does not
// read the flag) or exits 0 and prints a result other than the run
// without the flag. The rows after the walk are settings that used to
// change nothing, or to be replaced without a word.
func TestFlagWalk(t *testing.T) {
	type walk struct {
		flag  string
		least int
		modes []string // none: every mode
	}
	var walks []walk
	var o options
	for _, f := range o.flags() {
		if f.Min != nil {
			walks = append(walks, walk{f.Name, *f.Min, nil})
		}
	}
	size := []string{"-nodes", "60", "-queries", "40"}
	modes := map[string][]string{
		"chaos":      {"-chaos", "-nodes", "40", "-warm", "200", "-queries", "40", "-ttl", "4"},
		"netcluster": {"-netcluster", "3", "-warm", "10", "-queries", "10"},
		"listen":     {"-listen", "127.0.0.1:0", "-nodes", "4"},
		"search":     {"-listen", "127.0.0.1:0", "-nodes", "4", "-bootstrap", "127.0.0.1:1", "-queries", "3"},
	}
	for _, s := range scenario.Strategies(nil, nil, peer.QuerySpec{}, 0) {
		modes[s.Name] = append([]string{"-router", s.Name}, size...)
		if s.Warm {
			modes[s.Name] = append(modes[s.Name], "-warm", "300")
		}
	}
	for name, topology := range topologies {
		modes[name] = append([]string{"-router", "flood", "-topology", name}, size...)
		walks = append(walks, walk{"nodes", topology.least, []string{name}})
	}
	walks = append(walks, walk{"nodes", topologies["gnutella"].least, []string{"chaos"}}, walk{"nodes", 2, []string{"listen", "search"}})
	for _, w := range walks {
		for mode, args := range modes {
			if w.modes != nil && !slices.Contains(w.modes, mode) {
				continue
			}
			if code, _, e := exec(t, args...); code != 0 {
				t.Fatalf("%s mode: arqnet %s: exit %d, stderr %q", mode, strings.Join(args, " "), code, e)
			}
			if i := slices.Index(args, "-"+w.flag); i >= 0 {
				args = slices.Delete(slices.Clone(args), i, i+2)
			}
			for _, v := range []int{-1, 0, w.least - 1, w.least} {
				walked := append(slices.Clone(args), "-"+w.flag, strconv.Itoa(v))
				code, got, e := exec(t, walked...)
				if code == 2 && strings.Count(e, "\n") == 1 {
					continue
				}
				if v < w.least {
					t.Errorf("arqnet %s: exit %d, stderr %q; want exit 2 and one line", strings.Join(walked, " "), code, e)
					continue
				}
				if code == 0 && got == "" {
					continue // parse accepted a socket mode
				}
				_, without, _ := exec(t, args...)
				if code != 0 || got == without {
					t.Errorf("%s mode: arqnet %s: exit %d and a result like the run without -%s; stderr %q", mode, strings.Join(walked, " "), code, w.flag, e)
				}
			}
		}
	}
	refused(t, "-ttl", "0")
	refused(t, "-router", "flood", "-warm", "1")
	refused(t, "-chaos", "-minsuccess", "0.5")
	refused(t, "-netcluster", "3", "-chaos")
	refused(t, "-listen", "127.0.0.1:0", "-queries", "5")
	refused(t, "-listen", "127.0.0.1:0", "-warm", "5")
	e := refused(t, "-router", "kwalk", "-nodes", "60")
	for _, s := range scenario.Strategies(nil, nil, peer.QuerySpec{}, 0) {
		if !strings.Contains(e, s.Name) {
			t.Errorf("an unknown -router: stderr %q does not list %s", e, s.Name)
		}
	}
}

// An overlay smaller than its topology builds is refused before any run
// starts: -nodes 2 used to panic in the gnutella generator, -nodes 4 in
// the small-world one, and -chaos -nodes 0 ran 300 nodes instead.
func TestCheckNodes(t *testing.T) {
	for name, topology := range topologies {
		args := []string{"-router", "flood", "-topology", name, "-queries", "5", "-nodes"}
		if code, _, e := exec(t, append(args, strconv.Itoa(topology.least))...); code != 0 {
			t.Errorf("the %s topology at %d nodes: exit %d, stderr %q; want exit 0", name, topology.least, code, e)
		}
		refused(t, append(args, strconv.Itoa(topology.least-1))...)
		if g := topology.build(stats.NewRNG(1), topology.least); g.N() != topology.least {
			t.Errorf("the %s topology at %d nodes built %d", name, topology.least, g.N())
		}
	}
	for _, c := range []struct {
		topology string
		n        int
	}{{"gnutella", 2}, {"gnutella", 0}, {"smallworld", 4}, {"random", 0}, {"random", -1}, {"ring", 100}} {
		refused(t, "-router", "flood", "-topology", c.topology, "-nodes", strconv.Itoa(c.n))
	}
	refused(t, "-nodes", "2")
	refused(t, "-chaos", "-nodes", "0")
}

// A drill setting below 1 is refused under -chaos: -warm 0, -queries 0
// and -ttl 0 used to run 3 000, 500 and 6 instead. So is a -topology or
// -router set on the command line, which the drill used to ignore.
func TestCheckChaos(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "-nodes", "40", "-warm", "1", "-queries", "1", "-ttl", "1"},
		{"-chaos", "-nodes", "40", "-seed", "7", "-warm", "150", "-queries", "30", "-ttl", "6"},
	} {
		if code, _, e := exec(t, args...); code != 0 {
			t.Errorf("arqnet %s: exit %d, stderr %q; want exit 0", strings.Join(args, " "), code, e)
		}
	}
	for _, c := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 300, 6}, {1500, -5, 6}} {
		refused(t, "-chaos", "-nodes", "40", "-warm", strconv.Itoa(c[0]), "-queries", strconv.Itoa(c[1]), "-ttl", strconv.Itoa(c[2]))
	}
	refused(t, "-chaos", "-warm", "0")
	refused(t, "-chaos", "-topology", "random")
	refused(t, "-chaos", "-router", "flood")
	refused(t, "-router", "flood", "-chaos", "-nodes", "40")
}

// -warm is read by exactly the catalogue's strategies that learn.
func TestModesMatchCatalogue(t *testing.T) {
	var o options
	var warm []string
	for _, f := range o.flags() {
		if f.Name == "warm" {
			warm = f.Modes
		}
	}
	for _, s := range scenario.Strategies(nil, nil, peer.QuerySpec{}, 0) {
		if slices.Contains(warm, s.Name) != s.Warm {
			t.Errorf("strategy %s warms %v, but -warm's modes %v say otherwise", s.Name, s.Warm, warm)
		}
	}
}
