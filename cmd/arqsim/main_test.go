package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"arq/internal/trace"
	"arq/internal/tracegen"
)

// exec runs arqsim in process and returns its exit status, its result
// (stdout less the report header, which echoes flags back) and its
// stderr.
func exec(t *testing.T, args ...string) (code int, result, stderr string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("arqsim %s panicked: %v", strings.Join(args, " "), p)
		}
	}()
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	lines := strings.SplitAfter(o.String(), "\n")
	lines = slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "policy=") })
	return code, strings.Join(lines, ""), e.String()
}

// refused fails the test unless args exit 2 with one line on stderr.
func refused(t *testing.T, args ...string) {
	t.Helper()
	if code, _, e := exec(t, args...); code != 2 || strings.Count(e, "\n") != 1 {
		t.Errorf("arqsim %s: exit %d, stderr %q; want exit 2 and one line", strings.Join(args, " "), code, e)
	}
}

// writeTrace writes a JSONL file of the generator's first n pairs, then
// raw queries and replies of the generator's raw capture.
func writeTrace(t *testing.T, name string, n, raw int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	g := tracegen.New(tracegen.PaperProfile())
	for i := 0; i < n; i++ {
		if err := w.WritePair(g.NextPair()); err != nil {
			t.Fatal(err)
		}
	}
	if raw > 0 {
		qs, rs := g.GenerateRaw(raw)
		for _, q := range qs {
			if err := w.WriteQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rs {
			if err := w.WriteReply(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagWalk walks every flag with a least value through -1, 0, one
// below it and the least value itself, in every mode: below the least
// value a run exits 2 with one line; at it, a run either exits 2 with
// one line (its mode does not read the flag) or exits 0 and prints a
// result other than the run without the flag. The rows after the walk
// are settings that used to change nothing or run on part of the input.
func TestFlagWalk(t *testing.T) {
	pairs := writeTrace(t, "pairs.jsonl", 12_000, 0)
	size := []string{"-block", "200", "-trials", "12"}
	modes := map[string][]string{
		"trace": append([]string{"-trace", pairs}, size...),
		"csv":   append([]string{"-policy", "sliding", "-csv"}, size...),
	}
	for _, p := range []string{"static", "sliding", "wide", "lazy", "adaptive", "incremental"} {
		modes[p] = append([]string{"-policy", p}, size...)
	}
	var o options
	for _, f := range o.flags() {
		if f.Min == nil {
			continue
		}
		for mode, args := range modes {
			if code, _, e := exec(t, args...); code != 0 {
				t.Fatalf("%s mode: arqsim %s: exit %d, stderr %q", mode, strings.Join(args, " "), code, e)
			}
			if i := slices.Index(args, "-"+f.Name); i >= 0 {
				args = slices.Delete(slices.Clone(args), i, i+2)
			}
			for _, v := range []int{-1, 0, *f.Min - 1, *f.Min} {
				walked := append(slices.Clone(args), "-"+f.Name, strconv.Itoa(v))
				if v < *f.Min {
					refused(t, walked...)
					continue
				}
				code, got, e := exec(t, walked...)
				if code == 2 && strings.Count(e, "\n") == 1 {
					continue
				}
				_, without, _ := exec(t, args...)
				if code != 0 || got == without {
					t.Errorf("%s mode: arqsim %s: exit %d and a result like the run without -%s; stderr %q", mode, strings.Join(walked, " "), code, f.Name, e)
				}
			}
		}
	}

	refused(t, append([]string{"-policy", "sliding", "-interval", "3"}, size...)...)
	refused(t, append([]string{"-trace", pairs, "-seed", "9"}, size...)...)
	refused(t, append([]string{"-trace", pairs, "-scenario", "churn"}, size...)...)
	refused(t, append([]string{"-policy", "incremental", "-threshold", "5"}, size...)...)
	refused(t, append([]string{"-csv", "-every", "3"}, size...)...)
	refused(t, append([]string{"-policy", "nosuch"}, size...)...)
	refused(t, append([]string{"-scenario", "nosuch"}, size...)...)
	// A trace that fills at most one block is all warm-up.
	refused(t, "-trace", writeTrace(t, "short.jsonl", 100, 0), "-block", "10000")
	// A file of pairs and raw records used to run on the pairs alone.
	refused(t, append([]string{"-trace", writeTrace(t, "mixed.jsonl", 1199, 1)}, size...)...)
	if code, _, e := exec(t, append([]string{"-trace", writeTrace(t, "raw.jsonl", 0, 20_000)}, size...)...); code != 0 {
		t.Errorf("a raw capture: exit %d, stderr %q", code, e)
	}
}

// A block, trial count or report stride below 1 is refused before any
// run starts: -every 0 used to print block 1 forever, -every -1 to panic
// and -block 0 to run empty blocks.
func TestCheckSizes(t *testing.T) {
	for _, c := range []struct {
		block, trials, every int
		ok                   bool
	}{
		{200, 12, 10, true},
		{1, 1, 1, true},
		{2000, 3, 0, false},
		{2000, 3, -1, false},
		{0, 3, 1, false},
		{-5, 3, 1, false},
		{2000, 0, 1, false},
		{2000, -2, 1, false},
	} {
		args := []string{"-block", strconv.Itoa(c.block), "-trials", strconv.Itoa(c.trials), "-every", strconv.Itoa(c.every)}
		if !c.ok {
			refused(t, args...)
		} else if code, _, e := exec(t, args...); code != 0 {
			t.Errorf("arqsim %s: exit %d, stderr %q; want exit 0", strings.Join(args, " "), code, e)
		}
	}
}

// The network mode is arqnet's: arqsim refuses -net and -nodes at any
// value, those its network mode used to run as well as those it used to
// refuse (-nodes 2 panicked in the generator).
func TestCheckNetNodes(t *testing.T) {
	size := []string{"-block", "200", "-trials", "12"}
	refused(t, append([]string{"-net"}, size...)...)
	refused(t, append([]string{"-net", "-policy", "lazy"}, size...)...)
	for _, n := range []string{"2000", "300", "2", "0", "-3"} {
		refused(t, append([]string{"-nodes", n}, size...)...)
		refused(t, append([]string{"-scenario", "churn", "-nodes", n}, size...)...)
	}
}

// A trace that fills at most one block is refused: the first block is
// every policy's warm-up, and a 6 131-pair capture at the default -block
// 10000 used to print trials=0 and avg=0.000 with exit 0.
func TestCheckTraceSize(t *testing.T) {
	for _, c := range []struct {
		pairs, block int
		ok           bool
	}{
		{6131, 10000, false},
		{10000, 10000, false},
		{0, 500, false},
		{10001, 10000, true},
		{20000, 500, true},
	} {
		if err := checkTraceSize(c.pairs, c.block); (err == nil) != c.ok {
			t.Errorf("checkTraceSize(pairs %d, block %d) = %v, want ok %v", c.pairs, c.block, err, c.ok)
		}
	}
}
