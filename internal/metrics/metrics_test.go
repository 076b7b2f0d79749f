package metrics

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Demo", "name", "coverage", "success")
	t.AddRow("sliding", 0.8391, 0.8022)
	t.AddRow("static", 0.198, 0.024)
	return t
}

func TestStringAligned(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "0.839") {
		t.Fatalf("float not formatted: %q", lines[3])
	}
}

func TestMarkdown(t *testing.T) {
	out := sample().Markdown()
	if !strings.Contains(out, "| name | coverage | success |") {
		t.Fatalf("bad header:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|---|") {
		t.Fatalf("bad separator:\n%s", out)
	}
	if !strings.Contains(out, "| static | 0.198 | 0.024 |") {
		t.Fatalf("bad row:\n%s", out)
	}
}

func TestLen(t *testing.T) {
	if len(sample().rows) != 2 {
		t.Fatal("wrong row count")
	}
}

func TestIntAndStringCells(t *testing.T) {
	tb := NewTable("", "n", "s")
	tb.AddRow(42, "x")
	if !strings.Contains(tb.String(), "42") {
		t.Fatal("int cell lost")
	}
}
