package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_golden.txt from the current output")

// TestQuickGolden pins, byte for byte, what `arqbench -quick` prints for
// every section but scale: the paper's tables and this repository's
// deployment experiments are deterministic given the seed, so any
// difference is a change in behaviour. A PR that means to move a number
// regenerates the file and says why:
// go test ./cmd/arqbench -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	var names []string
	for _, n := range sectionNames() {
		if n != "scale" { // host-dependent timings
			names = append(names, n)
		}
	}
	var buf, stderr bytes.Buffer
	if code := run([]string{"-quick", "-section", strings.Join(names, ",")}, &buf, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	path := filepath.Join("testdata", "quick_golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(got), path, len(exp))
}

// An unknown -section name is an error naming the valid ones, before
// anything runs.
func TestUnknownSection(t *testing.T) {
	var buf, stderr bytes.Buffer
	code := run([]string{"-section", "fig1,nosuch"}, &buf, &stderr)
	if msg := stderr.String(); code != 2 || !strings.Contains(msg, `"nosuch"`) || !strings.Contains(msg, "ablations") {
		t.Fatalf("-section fig1,nosuch: exit %d, stderr %q; want 2 and a line naming nosuch and the valid sections", code, msg)
	}
	if buf.Len() != 0 {
		t.Fatalf("sections ran before the bad name was reported: %q", buf.String())
	}
}

// exec runs arqbench in process and returns its exit status, stdout and
// stderr.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("arqbench %s panicked: %v", strings.Join(args, " "), p)
		}
	}()
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// refused fails the test unless args exit 2 with one line on stderr.
func refused(t *testing.T, args ...string) {
	t.Helper()
	if code, _, e := exec(t, args...); code != 2 || strings.Count(e, "\n") != 1 {
		t.Errorf("arqbench %s: exit %d, stderr %q; want exit 2 and one line", strings.Join(args, " "), code, e)
	}
}

// TestFlagWalk walks every flag with a least value through -1, 0, one
// below it and the least value itself, in every section:
// below the least value a run exits 2 with one line; at it, a run either
// exits 2 with one line (the section does not read the flag) or exits 0
// and prints something other than the run without the flag. The rows
// after the walk are settings that used to change nothing.
func TestFlagWalk(t *testing.T) {
	var o options
	for _, f := range o.flags() {
		if f.Min == nil {
			continue
		}
		for _, section := range sectionNames() {
			// -quick sets no size of the trial sections once -trials is
			// given, so they walk at full size.
			args := []string{"-section", section}
			if slices.Contains(quickSections, section) {
				args = append(args, "-quick")
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
				if _, without, _ := exec(t, args...); code != 0 || got == without {
					t.Errorf("arqbench %s: exit %d and output like the run without -%s; stderr %q", strings.Join(walked, " "), code, f.Name, e)
				}
			}
		}
	}

	// -trials -3 used to spin forever, and -trials 0 to print rows of
	// 0.000 and +Inf.
	refused(t, "-trials", "-3")
	refused(t, "-trials", "0")
	refused(t, "-section", "fig1", "-markdown")
	refused(t, "-section", "ablations", "-quick")
	refused(t, "-section", "fig1", "-quick", "-trials", "10")
	// -quick sets -trials' default; it used to cut an explicit -trials
	// to 60 as well.
	_, at60, _ := exec(t, "-section", "fig1,import", "-quick")
	if code, at100, e := exec(t, "-section", "fig1,import", "-quick", "-trials", "100"); code != 0 || at100 == at60 {
		t.Errorf("-quick -trials 100: exit %d, stderr %q, output like -quick's 60 trials", code, e)
	}
}
