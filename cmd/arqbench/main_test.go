package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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
	var buf bytes.Buffer
	out = &buf
	*quick = true
	defer func() { out = os.Stdout }()
	if err := run(strings.Join(names, ",")); err != nil {
		t.Fatal(err)
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
	var buf bytes.Buffer
	out = &buf
	defer func() { out = os.Stdout }()
	err := run("fig1,nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "ablations") {
		t.Fatalf("run(fig1,nosuch) = %v, want an error naming nosuch and the valid sections", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("sections ran before the bad name was reported: %q", buf.String())
	}
}
