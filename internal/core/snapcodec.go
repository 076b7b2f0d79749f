package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"arq/internal/trace"
)

// This file is the persistence half of the snapshot lifecycle: a
// versioned binary codec over RuleSnapshot plus Publisher.restore, which
// seeds a learn plane from a decoded snapshot at discounted support. A
// servent that checkpoints its published snapshot to disk can warm-start
// after a crash instead of re-learning from zero, and the same
// encode/remap/restore primitives are the merge half of snapshot
// federation (see ROADMAP): a restored snapshot is just a remote one with
// discount applied.

// snapshotMagic prefixes every encoded snapshot.
const snapshotMagic = "ARQS"

// snapshotCodecVersion is the current wire version of the snapshot
// encoding. Decoders reject anything newer.
const snapshotCodecVersion = 1

// maxSnapshotRules bounds how many rules UnmarshalSnapshot will accept —
// a corrupt or hostile length field fails fast instead of allocating.
const maxSnapshotRules = 1 << 22

// snapshotHeaderLen is magic + codec version + snapshot version + eight
// reserved bytes + rule count.
const snapshotHeaderLen = 4 + 2 + 8 + 8 + 4

// Marshal encodes the snapshot deterministically: a fixed header
// (magic, codec version, snapshot version, reserved, rule count)
// followed by (PairKey, support) records sorted by PairKey. Equal
// snapshots always produce identical bytes, so checkpoints can be
// compared and deduplicated byte-wise. The reserved field once held a
// publish time that no program recorded; it is written as zero and
// ignored on decode, so every version-1 checkpoint still restores.
func (s *RuleSnapshot) Marshal() []byte {
	rules := s.byKey()
	out := make([]byte, 0, snapshotHeaderLen+16*len(rules))
	out = append(out, snapshotMagic...)
	out = binary.LittleEndian.AppendUint16(out, snapshotCodecVersion)
	out = binary.LittleEndian.AppendUint64(out, s.version)
	out = binary.LittleEndian.AppendUint64(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rules)))
	for _, e := range rules {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Key))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.Support))
	}
	return out
}

// UnmarshalSnapshot decodes a snapshot produced by Marshal, validating
// the header, the exact payload length, strictly increasing keys (the
// canonical-encoding invariant), and finite positive supports. The
// records are then put into the same canonical order Publish uses, so a
// decoded snapshot serves routing decisions identical to the original.
func UnmarshalSnapshot(p []byte) (*RuleSnapshot, error) {
	if len(p) < snapshotHeaderLen {
		return nil, errors.New("core: snapshot too short")
	}
	if string(p[:4]) != snapshotMagic {
		return nil, errors.New("core: snapshot magic mismatch")
	}
	if v := binary.LittleEndian.Uint16(p[4:]); v != snapshotCodecVersion {
		return nil, fmt.Errorf("core: snapshot codec version %d unsupported", v)
	}
	version := binary.LittleEndian.Uint64(p[6:])
	n := binary.LittleEndian.Uint32(p[22:])
	if n > maxSnapshotRules {
		return nil, fmt.Errorf("core: snapshot claims %d rules", n)
	}
	if len(p) != snapshotHeaderLen+16*int(n) {
		return nil, errors.New("core: snapshot length mismatch")
	}
	s := &RuleSnapshot{version: version, rules: make([]RuleEntry, 0, n)}
	prev, first := PairKey(0), true
	for i := 0; i < int(n); i++ {
		rec := p[snapshotHeaderLen+16*i:]
		k := PairKey(binary.LittleEndian.Uint64(rec))
		sup := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		if !first && k <= prev {
			return nil, errors.New("core: snapshot keys not strictly increasing")
		}
		if math.IsNaN(sup) || math.IsInf(sup, 0) || sup <= 0 {
			return nil, fmt.Errorf("core: snapshot support %v out of range", sup)
		}
		s.rules = append(s.rules, RuleEntry{Key: k, Support: sup})
		prev, first = k, false
	}
	sortRules(s.rules)
	return s, nil
}

// RemapSnapshot rebuilds a snapshot under a host-id translation: every
// pair has both ends mapped through f, pairs with an unmapped end are
// dropped, and pairs that collide after mapping merge by summing their
// supports. The version carries over. This is how conn-keyed
// rules persist across a restart (conn ids -> node ids on checkpoint,
// node ids -> re-established conn ids on warm start) and how federated
// snapshots translate between id universes.
func RemapSnapshot(s *RuleSnapshot, f func(trace.HostID) (trace.HostID, bool)) *RuleSnapshot {
	sum := make(map[PairKey]float64, len(s.rules))
	for _, e := range s.rules {
		src, ok := f(e.Key.Source())
		if !ok {
			continue
		}
		rep, ok := f(e.Key.Replier())
		if !ok {
			continue
		}
		sum[packPair(src, rep)] += e.Support
	}
	out := &RuleSnapshot{version: s.version, rules: make([]RuleEntry, 0, len(sum))}
	for k, sup := range sum {
		out.rules = append(out.rules, RuleEntry{Key: k, Support: sup})
	}
	sortRules(out.rules)
	return out
}

// restore seeds idx, the publisher's index, from a persisted snapshot at
// discounted support and publishes the result. Each rule's support is
// added (not overwritten) at s.Support * discount, so restoring into a
// live index merges rather than clobbers — the same primitive a
// federation merge needs. discount outside (0, 1] is treated as 1.
// Restored rules whose discounted support falls below the activation
// threshold land in the index but not in the published snapshot: a
// marginal rule does not survive a restart, by design.
//
// The publisher's version is first raised to at least the snapshot's, so
// the post-restore publish is strictly newer than both the restored
// snapshot and anything published before — version monotonicity holds
// across restarts.
func (p *Publisher) restore(idx *PairIndex, s *RuleSnapshot, discount float64) *RuleSnapshot {
	if s == nil {
		s = emptySnapshot
	}
	if discount <= 0 || discount > 1 {
		discount = 1
	}
	// Seed in sorted key order so restore is deterministic.
	for _, e := range s.byKey() {
		idx.add(e.Key.Source(), e.Key.Replier(), e.Support*discount)
	}
	if s.version > p.version {
		p.version = s.version
	}
	return p.publish(idx)
}
