package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"arq/internal/stats"
)

// graphDigest is SHA-256 over every row of g in node order: the row's
// length, then its neighbors in order, each a little-endian uint32.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	put(uint32(g.N()))
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		put(uint32(len(row)))
		for _, v := range row {
			put(uint32(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigest pins every generator's output row for row, in
// neighbor order: the flood order, hence every golden downstream, is a
// function of it.
func TestGeneratorDigest(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{"gnutella-300", func() *Graph { return GnutellaLike(stats.NewRNG(1), 300) },
			"562f1d6c2b7a91d313ede9ff36c23f5b54202f05e58d05c5248dd61989640abf"},
		{"gnutella-5000", func() *Graph { return GnutellaLike(stats.NewRNG(101), 5000) },
			"c6438318020357a47f786118f408e9d4b9acbd5b66331a78c771dcd902ef766f"},
		{"gnutella-100000", func() *Graph { return GnutellaLike(stats.NewRNG(101), 100000) },
			"725262354072e1ee3db0bd18af1408b3e571a281487d3b4b96d0421dc101f181"},
		{"random", func() *Graph { return Random(stats.NewRNG(2), 2000, 6) },
			"2524652a62d8d4efffb44e194db541ac1b5bad1bcbcd8a4cedce31251e8db33e"},
		{"random-sparse", func() *Graph { return Random(stats.NewRNG(3), 1200, 1.5) },
			"45cb2a8ea04c3cbb51ae19c1909c7eb681c92bac1f8de3ef9d0c53e5aeb47840"},
		{"wattsstrogatz", func() *Graph { return WattsStrogatz(stats.NewRNG(4), 2000, 4, 0.1) },
			"9e0768ea683e19f45182cf434d2b787e2a0d95701b04a4909a41da7accae61e9"},
		{"wattsstrogatz-rewired", func() *Graph { return WattsStrogatz(stats.NewRNG(5), 300, 6, 0.9) },
			"f5e84c9bf88777bffed2e211f0fddaa91934f9a478192e6533e19170ad050c65"},
	} {
		if got := graphDigest(c.build()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
