package vantage

// Checkpoint/warm-start: the persistence half of the self-healing
// servent. The rule server's published snapshots are keyed by this
// servent's small connection ids, which mean nothing after a restart —
// so a checkpoint remaps them to the peers' node ids (stable across
// restarts, exchanged in the transport hello) before writing, and a warm
// start remaps back onto whatever connection ids the re-established
// links landed on. Restore seeds the learn plane at discounted support:
// surviving a crash costs a rule part of its evidence, so stale rules
// must re-earn their support before marginal ones reactivate.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"arq/internal/core"
	"arq/internal/obsv"
	"arq/internal/trace"
)

var (
	mCheckpoints  = obsv.GetCounter("vantage.checkpoints")
	mWarmRestores = obsv.GetCounter("vantage.warm_restores")
)

// Defaults for zero-valued CheckpointConfig fields.
const (
	defaultCheckpointEvery    = 16
	defaultCheckpointDiscount = 0.5
)

// checkpointFile is the snapshot file name inside CheckpointConfig.Dir.
const checkpointFile = "rules.ckpt"

// CheckpointConfig enables rule-snapshot persistence on a servent with
// rule routing (Options.Rules).
type CheckpointConfig struct {
	// Dir is where the checkpoint file lives (required).
	Dir string
	// EveryVersions is the publish cadence: a checkpoint is written in
	// the background whenever the published snapshot version has
	// advanced by at least this much since the last one (default
	// defaultCheckpointEvery). A version is a change in some rule's rank
	// or membership, or a decay step. Close always writes a final
	// checkpoint.
	EveryVersions uint64
	// Discount scales restored supports on WarmStart (default
	// defaultCheckpointDiscount; see core.Learner.Restore).
	Discount float64
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.EveryVersions == 0 {
		c.EveryVersions = defaultCheckpointEvery
	}
	if c.Discount <= 0 || c.Discount > 1 {
		c.Discount = defaultCheckpointDiscount
	}
	return c
}

// checkpointer is the servent's checkpoint state: one background write
// at a time, retired cleanly at Close.
type checkpointer struct {
	cfg CheckpointConfig

	mu      sync.Mutex
	busy    bool
	stopped bool
	lastVer uint64
	wg      sync.WaitGroup
}

// nodeHost maps a peer's node id into the trace.HostID universe a
// checkpointed snapshot is keyed by (the same +1 shift connHost uses, so
// id 0 stays distinguishable from "no host").
func nodeHost(nodeID int) trace.HostID { return trace.HostID(uint32(nodeID) + 1) }

// maybeCheckpoint writes a checkpoint in the background when the
// published version has advanced a full cadence past the last one.
// Called on the query-hit path: the fast path is one version load and
// one mutex acquire, and at most one write is ever in flight.
func (s *Servent) maybeCheckpoint() {
	ck := s.ckpt
	if ck == nil {
		return
	}
	ver := s.rules.learner.Version()
	ck.mu.Lock()
	if ck.stopped || ck.busy || ver < ck.lastVer+ck.cfg.EveryVersions {
		ck.mu.Unlock()
		return
	}
	ck.busy = true
	ck.wg.Add(1)
	ck.mu.Unlock()
	go func() {
		defer ck.wg.Done()
		_ = s.writeCheckpoint()
		ck.mu.Lock()
		ck.busy = false
		ck.mu.Unlock()
	}()
}

// writeCheckpoint publishes the learner's current rules and persists
// them, remapped from connection ids to peer node ids, to Dir/rules.ckpt
// (written to a temp file and renamed, so a crash mid-write never
// corrupts the previous checkpoint). It publishes rather than reading the
// served snapshot, whose supports may trail the learner's. Rules whose
// connection is gone are dropped — they could not be remapped onto a
// future incarnation anyway.
func (s *Servent) writeCheckpoint() error {
	view := s.rules.learner.Publish()
	s.mu.Lock()
	toNode := make(map[trace.HostID]trace.HostID, len(s.conns))
	for id, pc := range s.conns {
		toNode[connHost(id)] = nodeHost(pc.c.PeerID())
	}
	s.mu.Unlock()
	snap := core.RemapSnapshot(view, func(h trace.HostID) (trace.HostID, bool) {
		v, ok := toNode[h]
		return v, ok
	})
	ck := s.ckpt
	tmp, err := os.CreateTemp(ck.cfg.Dir, checkpointFile+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(snap.Marshal()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(ck.cfg.Dir, checkpointFile)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	ck.mu.Lock()
	ck.lastVer = view.Version()
	ck.mu.Unlock()
	mCheckpoints.Inc()
	return nil
}

// WarmStart seeds the rule server from the latest checkpoint in the
// configured directory, remapping node-keyed rules onto the connections
// currently established — call it after the servent has (re)connected to
// its peers, so the remap finds them. Returns the number of rules
// restored into the learn plane; a missing checkpoint restores zero
// rules and is not an error (a cold start is a valid start).
func (s *Servent) WarmStart() (int, error) {
	if s.ckpt == nil || s.rules == nil {
		return 0, errors.New("vantage: checkpointing not configured")
	}
	b, err := os.ReadFile(filepath.Join(s.ckpt.cfg.Dir, checkpointFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	snap, err := core.UnmarshalSnapshot(b)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	toConn := make(map[trace.HostID]trace.HostID, len(s.conns))
	for id, pc := range s.conns {
		toConn[nodeHost(pc.c.PeerID())] = connHost(id)
	}
	s.mu.Unlock()
	remapped := core.RemapSnapshot(snap, func(h trace.HostID) (trace.HostID, bool) {
		v, ok := toConn[h]
		return v, ok
	})
	s.rules.learner.Restore(remapped, s.ckpt.cfg.Discount)
	mWarmRestores.Inc()
	return remapped.Len(), nil
}

// closeCheckpointer stops background checkpointing and writes the final
// checkpoint. Must run before the transport closes: the remap needs the
// live connection set, and an empty post-drain one would overwrite a
// good checkpoint with an empty snapshot.
func (s *Servent) closeCheckpointer() {
	ck := s.ckpt
	if ck == nil {
		return
	}
	ck.mu.Lock()
	ck.stopped = true
	ck.mu.Unlock()
	ck.wg.Wait()
	_ = s.writeCheckpoint()
}
