package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"

	"subthreads/internal/sim"
	"subthreads/internal/workload"
)

// The snapshot tier: alongside rendered result bodies ("result") and recorded
// programs ("built"), the persistent store keeps whole-machine checkpoints of
// each workload's leading barrier prefix, keyed by {workload digest, machine
// prefix digest}. A job whose exact digest misses every result tier but whose
// workload + prefix-invariant machine parameters match a stored checkpoint
// forks the simulation from it instead of replaying the prefix — the warm
// start covers machine state, not just Built artifacts. sim.ResumeE's
// byte-identity contract keeps the rendered body, and therefore the content
// address, exactly what a full run would have produced.

// casSnapNS is the store namespace for machine checkpoints.
const casSnapNS = "snap"

// snapshotKey names the checkpoint a resolved run could fork from: the
// workload (spec) digest crossed with the machine's prefix digest. The
// capture cycle is deterministic given both, so it lives inside the frame
// rather than in the key.
func snapshotKey(spec workload.Spec, cfg sim.Config) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("service: spec encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:24] + "-" + sim.PrefixDigest(cfg)[:24]
}

// simTLS runs a job's main (TLS-configured) simulation through the snapshot
// tier. Fault-injected jobs never fork (a checkpoint would skip scheduled
// faults) and sequential-software jobs have no speculative suffix worth
// forking into; both replay in full. A corrupt or inapplicable checkpoint is
// quarantined and the job falls back to a full replay — the tier can only
// ever save work, never fail a job.
func (s *Server) simTLS(j *Job, cfg sim.Config, built *workload.Built, r *Resolved) (*sim.Result, error) {
	if cfg.Inject != nil || r.Exp.SequentialSoftware() || s.store == nil {
		s.noteSim(false)
		return sim.RunE(cfg, built.Program)
	}
	key := snapshotKey(r.Spec, cfg)
	if s.breaker.Allow() {
		if data, ok := s.store.Get(casSnapNS, key); ok {
			if res, err := s.forkFrom(j, cfg, built, key, data); err == nil {
				return res, nil
			}
		} else {
			s.bumpSnap(&s.counters.SnapshotMisses)
		}
	}

	// Full replay; capture the prefix checkpoint on the way through and
	// publish it for the next run of this {workload, prefix} group.
	var captured *sim.Snapshot
	runCfg := cfg
	runCfg.SnapshotAtPrefix = true
	runCfg.SnapshotSink = func(snap *sim.Snapshot) {
		if snap.Forkable {
			captured = snap
		}
	}
	res, err := sim.RunE(runCfg, built.Program)
	s.noteSim(false)
	if err == nil && captured != nil && s.breaker.Allow() {
		s.store.Put(casSnapNS, key, captured.Encode())
		s.bumpSnap(&s.counters.SnapshotPuts)
		s.jlog(slog.LevelInfo, "snapshot published",
			slog.String("correlation_id", j.corr),
			slog.String("job", j.id),
			slog.String("snapshot", key),
			slog.Uint64("cycle", captured.Cycle))
	}
	return res, err
}

// forkFrom resumes a job's simulation from stored checkpoint bytes. Any
// failure — undecodable frame, or a frame that no longer applies to this
// program — quarantines the entry and returns the error so the caller
// replays in full.
func (s *Server) forkFrom(j *Job, cfg sim.Config, built *workload.Built, key string, data []byte) (*sim.Result, error) {
	snap, err := sim.DecodeSnapshot(data)
	if err == nil {
		var res *sim.Result
		if res, err = sim.ResumeE(cfg, built.Program, snap); err == nil {
			s.bumpSnap(&s.counters.SnapshotHits)
			s.noteSim(true)
			s.jlog(slog.LevelInfo, "job forked from snapshot",
				slog.String("correlation_id", j.corr),
				slog.String("job", j.id),
				slog.String("snapshot", key),
				slog.Uint64("cycle", snap.Cycle))
			return res, nil
		}
	}
	s.bumpSnap(&s.counters.SnapshotCorrupt)
	s.store.Quarantine(casSnapNS, key, err)
	s.jlog(slog.LevelWarn, "snapshot quarantined",
		slog.String("correlation_id", j.corr),
		slog.String("job", j.id),
		slog.String("snapshot", key),
		slog.String("error", err.Error()))
	return nil, err
}

func (s *Server) bumpSnap(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// noteSim records a job's main simulation as forked from a checkpoint or
// replayed in full.
func (s *Server) noteSim(forked bool) {
	s.mu.Lock()
	if forked {
		s.counters.JobsForked++
	} else {
		s.counters.JobsReplayed++
	}
	s.mu.Unlock()
}
