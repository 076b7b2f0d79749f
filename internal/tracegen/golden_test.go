package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"arq/internal/trace"
)

// TestStreamGolden pins the generator's output draw for draw: every field
// of every pair of the paper-profile stream, of a stream across a shock,
// and of a raw capture (query text and file names included) hashes to a
// recorded digest. A change to how the generator computes a draw must
// leave these unchanged; a change that means to move the stream moves
// every golden downstream and updates these digests with them.
func TestStreamGolden(t *testing.T) {
	shocked := PaperProfile()
	shocked.TotalBlocks = 40
	shocked.ShockAtBlock = 20
	shocked.ShockFraction = 0.8
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"paper", PaperProfile(), "855e7c8a8454d07d73767e090d14b4bc5eccfd7f742e8e0f43242c37986d4dfd"},
		{"shock", shocked, "4a5e2c79aea1f046c4bb27e39d22ee0ef2ba7f2b5d25b554656f69459c08eb96"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			g := New(c.cfg)
			n := 0
			for {
				b, ok := g.Next()
				if !ok {
					break
				}
				hashPairs(h, b)
				n++
			}
			if n != c.cfg.TotalBlocks {
				t.Fatalf("served %d blocks, want %d", n, c.cfg.TotalBlocks)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("stream digest %s, want %s", got, c.want)
			}
		})
	}
	t.Run("raw", func(t *testing.T) {
		qs, rs := New(PaperProfile()).GenerateRaw(50_000)
		h := sha256.New()
		var buf []byte
		for _, q := range qs {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(q.GUID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Time))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Source))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Interest))
			buf = append(append(buf, q.Text...), 0)
			h.Write(buf)
		}
		for _, r := range rs {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(r.GUID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Time))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.From))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Host))
			buf = append(append(buf, r.Filename...), 0)
			h.Write(buf)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), "6b0f2f7e6563030168a08fbbfd4e4c6c468ae87434879bbc5206a69a2a116848"; got != want {
			t.Errorf("raw capture digest %s, want %s", got, want)
		}
	})
}

// hashPairs writes every field of every pair of b to h.
func hashPairs(h hash.Hash, b trace.Block) {
	buf := make([]byte, 0, 20*len(b))
	for _, p := range b {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.GUID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Source))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Replier))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Interest))
	}
	h.Write(buf)
}
