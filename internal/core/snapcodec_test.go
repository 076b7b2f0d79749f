package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"arq/internal/trace"
)

// publishedSnapshot builds a decay index with the given weighted pairs
// and publishes once, returning the publisher and its snapshot.
func publishedSnapshot(t *testing.T, threshold float64, add func(idx *PairIndex)) (*Publisher, *RuleSnapshot) {
	t.Helper()
	idx := newDecayIndex(threshold)
	add(idx)
	p := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
	return p, p.publish(idx)
}

func TestSnapshotRoundtrip(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) {
		idx.add(1, 2, 5)
		idx.add(1, 3, 3)
		idx.add(1, 4, 3) // ties with 1->3: HostID tiebreak must survive decode
		idx.add(7, 2, 9)
		idx.add(2, 7, 1.5)
	})
	b := s.Marshal()
	got, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	if got.Version() != s.Version() || got.Len() != s.Len() {
		t.Fatalf("header mismatch: got (v%d n%d) want (v%d n%d)", got.Version(), got.Len(), s.Version(), s.Len())
	}
	// Byte-identical views: re-encoding the decoded snapshot must
	// reproduce the original bytes exactly.
	if !bytes.Equal(got.Marshal(), b) {
		t.Fatal("re-marshal of decoded snapshot differs from original bytes")
	}
	// The derived consequent ordering must match the publish-time one.
	for _, src := range []trace.HostID{1, 2, 7, 99} {
		want := s.Consequents(src, 0)
		have := got.Consequents(src, 0)
		if len(want) != len(have) {
			t.Fatalf("conseq[%d]: got %v want %v", src, have, want)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("conseq[%d]: got %v want %v", src, have, want)
			}
		}
	}
}

// A checkpoint written by a tree that still stamped a publish time into
// the header's reserved field restores as if the field were zero, and is
// written back with it zero. The fixture is TestSnapshotRoundtrip's five
// rules as PR 23's Marshal encoded them under an age bound.
func TestSnapshotDecodeIgnoresReservedField(t *testing.T) {
	stamped, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1_stamped.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stamped) != snapshotHeaderLen+16*5 || binary.LittleEndian.Uint64(stamped[14:]) == 0 {
		t.Fatalf("fixture is %d bytes with reserved field %#x, want a stamped five-rule snapshot", len(stamped), stamped[14:22])
	}
	zeroed := bytes.Clone(stamped)
	clear(zeroed[14:22])
	a, err := UnmarshalSnapshot(stamped)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot(stamped): %v", err)
	}
	b, err := UnmarshalSnapshot(zeroed)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot(zeroed): %v", err)
	}
	if a.Version() != 1 || a.Version() != b.Version() || !slices.Equal(a.rules, b.rules) {
		t.Fatalf("stamped decodes to v%d %v, zeroed to v%d %v", a.Version(), a.rules, b.Version(), b.rules)
	}
	if a.Support(7, 2) != 9 || a.Support(2, 7) != 1.5 {
		t.Fatalf("decoded rules %v, want 7->2 at 9 and 2->7 at 1.5 among them", a.rules)
	}
	if !bytes.Equal(a.Marshal(), zeroed) || !bytes.Equal(b.Marshal(), zeroed) {
		t.Fatal("Marshal of a decoded snapshot does not write the reserved field as zero")
	}
}

func TestSnapshotMarshalDeterministic(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) {
		for i := 0; i < 64; i++ {
			idx.add(trace.HostID(i%8+1), trace.HostID(i%5+10), float64(i%7)+1)
		}
	})
	a, b := s.Marshal(), s.Marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("two Marshal calls on one snapshot produced different bytes")
	}
}

func TestSnapshotEmptyRoundtrip(t *testing.T) {
	// The package-level pre-first-publish snapshot.
	b := emptySnapshot.Marshal()
	got, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot(emptySnapshot): %v", err)
	}
	if got.Version() != 0 || got.Len() != 0 {
		t.Fatalf("decoded empty snapshot: v%d n%d", got.Version(), got.Len())
	}
	if got.covers(1) || got.matches(1, 2) {
		t.Fatal("decoded empty snapshot claims rules")
	}

	// A published-but-empty snapshot keeps its nonzero version.
	_, s := publishedSnapshot(t, 100, func(idx *PairIndex) { idx.add(1, 2, 1) })
	got, err = UnmarshalSnapshot(s.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalSnapshot(published empty): %v", err)
	}
	if got.Version() != 1 || got.Len() != 0 {
		t.Fatalf("published empty snapshot decoded as v%d n%d, want v1 n0", got.Version(), got.Len())
	}
}

func TestUnmarshalSnapshotRejectsCorrupt(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) {
		idx.add(1, 2, 5)
		idx.add(3, 4, 2)
	})
	good := s.Marshal()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), good...))
		if _, err := UnmarshalSnapshot(b); err == nil {
			t.Errorf("%s: decode accepted corrupt snapshot", name)
		}
	}
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0) })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("future codec version", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], snapshotCodecVersion+1)
		return b
	})
	corrupt("hostile count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[22:], maxSnapshotRules+1)
		return b
	})
	corrupt("duplicate key", func(b []byte) []byte {
		copy(b[snapshotHeaderLen+16:], b[snapshotHeaderLen:snapshotHeaderLen+8])
		return b
	})
	corrupt("descending keys", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+16:], 0)
		return b
	})
	corrupt("NaN support", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], math.Float64bits(math.NaN()))
		return b
	})
	corrupt("negative support", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], math.Float64bits(-1))
		return b
	})
	corrupt("zero support", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], math.Float64bits(0))
		return b
	})
}

func TestRestoreSeedsDiscounted(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) {
		idx.add(1, 2, 8)
		idx.add(3, 4, 1.5) // marginal: 1.5 * 0.5 < threshold, must not survive
	})

	idx2 := newDecayIndex(1)
	p2 := publisherOver(idx2, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
	out := p2.restore(idx2, s, 0.5)
	if got := out.Support(1, 2); got != 4 {
		t.Fatalf("restored support(1,2) = %v, want 4 (8 discounted by 0.5)", got)
	}
	if out.matches(3, 4) {
		t.Fatal("marginal rule survived restore below threshold")
	}
	if p2.view() != out {
		t.Fatal("Restore did not publish the restored snapshot")
	}
}

func TestRestoreMergesIntoLiveIndex(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) { idx.add(1, 2, 6) })

	idx2 := newDecayIndex(1)
	idx2.add(1, 2, 4) // live state the restore must merge with, not clobber
	p2 := publisherOver(idx2, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
	out := p2.restore(idx2, s, 1)
	if got := out.Support(1, 2); got != 10 {
		t.Fatalf("merged support(1,2) = %v, want 10 (4 live + 6 restored)", got)
	}
}

func TestRestoreVersionMonotone(t *testing.T) {
	// Restoring an old snapshot into a newer publisher must not roll the
	// version back; restoring a newer snapshot must advance past it.
	var idxHigh, idxFresh *PairIndex
	pHigh, _ := publishedSnapshot(t, 1, func(idx *PairIndex) { idxHigh = idx; idx.add(1, 2, 5) })
	for i := 0; i < 9; i++ {
		pHigh.publish(idxHigh) // version now 10
	}
	_, sLow := publishedSnapshot(t, 1, func(idx *PairIndex) { idx.add(5, 6, 5) }) // version 1
	out := pHigh.restore(idxHigh, sLow, 1)
	if out.Version() != 11 {
		t.Fatalf("restore of old snapshot published v%d, want v11", out.Version())
	}

	pFresh, _ := publishedSnapshot(t, 1, func(idx *PairIndex) { idxFresh = idx; idx.add(7, 8, 5) })
	sHigh := pHigh.view() // version 11
	out = pFresh.restore(idxFresh, sHigh, 1)
	if out.Version() <= sHigh.Version() {
		t.Fatalf("restore published v%d, not newer than restored v%d", out.Version(), sHigh.Version())
	}
}

func TestRemapSnapshot(t *testing.T) {
	_, s := publishedSnapshot(t, 1, func(idx *PairIndex) {
		idx.add(1, 2, 5)
		idx.add(3, 4, 2) // 3 unmapped: dropped
		idx.add(5, 6, 3) // collides with 1->2 after mapping: summed
	})
	m := map[trace.HostID]trace.HostID{1: 10, 2: 20, 4: 40, 5: 10, 6: 20}
	out := RemapSnapshot(s, func(h trace.HostID) (trace.HostID, bool) {
		v, ok := m[h]
		return v, ok
	})
	if out.Version() != s.Version() {
		t.Fatal("remap lost the version")
	}
	if got := out.Support(10, 20); got != 8 {
		t.Fatalf("remapped support(10,20) = %v, want 8 (5 + 3 merged)", got)
	}
	if out.Len() != 1 {
		t.Fatalf("remapped snapshot has %d rules, want 1", out.Len())
	}
	if out.covers(3) || out.covers(1) {
		t.Fatal("remapped snapshot still covers pre-map ids")
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	idx := newDecayIndex(1)
	idx.add(1, 2, 5)
	idx.add(1, 3, 2.5)
	idx.add(9, 1, 7)
	p := publisherOver(idx, PublisherConfig{Policy: PublishEpoch, Epoch: 1 << 30})
	f.Add(p.publish(idx).Marshal())
	// Several antecedents whose consequents tie on support, some with each
	// other and some across antecedents: key order (what the bytes carry)
	// and canonical order (what the decoder must restore) differ most here.
	for _, sups := range [][]float64{{4, 4, 4}, {2, 6, 2}, {5, 3, 5}} {
		tied := newDecayIndex(1)
		for i, src := range []trace.HostID{9, 2, 5} {
			for j, sup := range sups {
				tied.Set(src, trace.HostID(10*(j+1)+i), sup)
			}
		}
		f.Add(publisherOver(tied, PublisherConfig{}).publish(tied).Marshal())
	}
	f.Add(emptySnapshot.Marshal())
	f.Add([]byte("ARQS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		// Accepted input must be exactly the canonical encoding: decode
		// then re-encode is the identity on bytes, but for the reserved
		// field, which is read as anything and written as zero.
		canonical := bytes.Clone(data)
		clear(canonical[14:22])
		if !bytes.Equal(s.Marshal(), canonical) {
			t.Fatalf("accepted non-canonical snapshot: %d bytes re-encode to %d", len(data), len(s.Marshal()))
		}
		// The decoder must hand back the canonical snapshot order, the
		// one Publish and the one-run rebuild maintain.
		for i := 1; i < len(s.rules); i++ {
			if ruleCmp(s.rules[i-1], s.rules[i]) >= 0 {
				t.Fatalf("decoded rules %d and %d out of canonical order: %+v, %+v", i-1, i, s.rules[i-1], s.rules[i])
			}
		}
		// Derived state must be internally consistent.
		n := 0
		s.Range(func(k PairKey, sup float64) bool {
			n++
			if sup <= 0 || math.IsNaN(sup) || math.IsInf(sup, 0) {
				t.Fatalf("decoded support out of range: %v", sup)
			}
			if !s.matches(k.Source(), k.Replier()) {
				t.Fatal("Range pair not in Matches")
			}
			return true
		})
		if n != s.Len() {
			t.Fatalf("Range saw %d rules, Len says %d", n, s.Len())
		}
	})
}
