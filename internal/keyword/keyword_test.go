package keyword

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Free_Software-2.0.tar")
	want := []string{"free", "software", "2", "0", "tar"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v", got)
		}
	}
	if Tokenize("...---...") != nil {
		t.Fatal("separator-only text produced tokens")
	}
	if Tokenize("") != nil {
		t.Fatal("empty text produced tokens")
	}
}

// tokenizeBuilder is Tokenize as it was before it sliced the lowered
// string: one strings.Builder flush per token. Kept as the oracle.
func tokenizeBuilder(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

func TestTokenizeMatchesBuilderOracle(t *testing.T) {
	same := func(text string) bool {
		got, want := Tokenize(text), tokenizeBuilder(text)
		return slices.Equal(got, want) && (got == nil) == (want == nil)
	}
	// quick draws arbitrary Unicode; the fixed cases are the ones where
	// lowering changes a rune's width or class (Kelvin sign -> k, dotted
	// capital I) and where the bytes are not UTF-8 at all.
	for _, text := range []string{"", "\u212Aelvin 2\u212A", "\u0130stanbul", "caf\u00c9 OLÉ", "a\xffb\xc3", "\xe2\x84", "ǅ ǅx"} {
		if !same(text) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", text, Tokenize(text), tokenizeBuilder(text))
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Bytes, so that invalid UTF-8 and ASCII-dense strings get drawn too.
	if err := quick.Check(func(b []byte) bool { return same(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeAndQueryAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Tokenize("Topic-007 Keywords") }); n > 2 {
		t.Fatalf("Tokenize allocates %v times, want <= 2 (the lowered string and the token slice)", n)
	}
	ix := NewIndex()
	for i := 0; i < 15; i++ {
		ix.Add(int32(i), "topic-007 keywords file.dat")
	}
	if n := testing.AllocsPerRun(100, func() { ix.Query("topic-007 keywords topic") }); n > 2 {
		t.Fatalf("Query allocates %v times on a lowercase search, want <= 2 (tokens and result)", n)
	}
}

func TestIndexConjunctiveQuery(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "Free Software Compilation.tar")
	ix.Add(2, "holiday photos.zip")
	ix.Add(3, "free holiday guide.pdf")
	if got := ix.Query("free software"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("query = %v", got)
	}
	if got := ix.Query("free"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("query = %v", got)
	}
	if got := ix.Query("software photos"); got != nil {
		t.Fatalf("disjoint words matched: %v", got)
	}
	if got := ix.Query(""); got != nil {
		t.Fatalf("empty query matched: %v", got)
	}
	if got := ix.Query("nonexistent"); got != nil {
		t.Fatalf("unknown token matched: %v", got)
	}
	if len(ix.docs) != 3 {
		t.Fatalf("docs = %d", len(ix.docs))
	}
}

func TestIndexDuplicateAddIdempotent(t *testing.T) {
	ix := NewIndex()
	ix.Add(7, "alpha beta")
	ix.Add(7, "alpha beta")
	if got := ix.Query("alpha"); len(got) != 1 {
		t.Fatalf("duplicate add produced %v", got)
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	docs := []string{
		"topic-001 keywords linux", "topic-002 keywords compilers",
		"music album 2006", "linux kernel source", "keywords only",
	}
	ix := NewIndex()
	for i, d := range docs {
		ix.Add(int32(i), d)
	}
	contains := func(hay []string, needle string) bool {
		for _, h := range hay {
			if h == needle {
				return true
			}
		}
		return false
	}
	f := func(q1, q2 uint8) bool {
		// Build a random 1-2 token query from the corpus vocabulary.
		vocab := []string{"topic", "001", "002", "keywords", "linux",
			"compilers", "music", "album", "2006", "kernel", "source", "only", "zzz"}
		query := vocab[int(q1)%len(vocab)]
		if q2%2 == 0 {
			query += " " + vocab[int(q2)%len(vocab)]
		}
		got := ix.Query(query)
		gotSet := map[int32]bool{}
		for _, id := range got {
			gotSet[id] = true
		}
		for i, d := range docs {
			toks := Tokenize(d)
			match := true
			for _, qt := range Tokenize(query) {
				if !contains(toks, qt) {
					match = false
					break
				}
			}
			if match != gotSet[int32(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryResultSortedAndStable(t *testing.T) {
	ix := NewIndex()
	for i := 20; i >= 0; i-- {
		ix.Add(int32(i), "shared word")
	}
	got := ix.Query("shared word")
	if len(got) != 21 {
		t.Fatalf("matches = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("results not ascending")
		}
	}
	// Mutating the result must not corrupt the index.
	got[0] = 999
	if again := ix.Query("shared word"); again[0] != 0 {
		t.Fatal("caller mutation leaked into index")
	}
}
