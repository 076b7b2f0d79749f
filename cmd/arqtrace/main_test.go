package main

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exec runs arqtrace in process and returns its exit status, a digest of
// its stdout (a default capture is tens of megabytes) and its stderr.
func exec(t *testing.T, args ...string) (code int, out [sha256.Size]byte, stderr string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("arqtrace %s panicked: %v", strings.Join(args, " "), p)
		}
	}()
	h := sha256.New()
	var e bytes.Buffer
	code = run(args, h, &e)
	copy(out[:], h.Sum(nil))
	return code, out, e.String()
}

// refused fails the test unless args exit 2 with one line on stderr.
func refused(t *testing.T, args ...string) {
	t.Helper()
	if code, _, e := exec(t, args...); code != 2 || strings.Count(e, "\n") != 1 {
		t.Errorf("arqtrace %s: exit %d, stderr %q; want exit 2 and one line", strings.Join(args, " "), code, e)
	}
}

// TestFlagWalk walks every flag with a least value through -1, 0, one
// below it and the least value itself, in every mode: below the least
// value a run exits 2 with one line; at it, a run either exits 2 with
// one line (its mode does not read the flag) or exits 0 and prints
// something other than the run without the flag.
func TestFlagWalk(t *testing.T) {
	modes := map[string][]string{
		"pairs":   {"-pairs", "40"},
		"capture": {"-raw", "-queries", "40"},
		"stats":   {"-raw", "-stats", "-queries", "40"},
	}
	var o options
	for _, f := range o.flags() {
		if f.Min == nil {
			continue
		}
		for mode, args := range modes {
			if code, _, e := exec(t, args...); code != 0 {
				t.Fatalf("%s mode: arqtrace %s: exit %d, stderr %q", mode, strings.Join(args, " "), code, e)
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
					t.Errorf("%s mode: arqtrace %s: exit %d and output like the run without -%s; stderr %q", mode, strings.Join(walked, " "), code, f.Name, e)
				}
			}
		}
	}
	// -queries -5 used to panic sizing the capture, and -pairs -3 to
	// report "wrote -3 pairs".
	refused(t, "-pairs", "0")
	refused(t, "-raw", "-queries", "-1")
	// -stats reports on a raw capture: without -raw it used to write the
	// pair stream to stdout and ignore -out.
	refused(t, "-pairs", "3", "-stats")
	refused(t, "-raw", "-stats", "-out", "x.jsonl")
	refused(t, "-pairs", "3", "extra")
}
