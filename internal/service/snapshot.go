package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"

	"subthreads/internal/cas"
	"subthreads/internal/sim"
	"subthreads/internal/workload"
)

// The snapshot tier: alongside rendered result bodies ("result") and
// SEQUENTIAL reference cycle counts ("seqref"), the persistent store keeps
// whole-machine checkpoints of each workload's leading barrier prefix, keyed
// by {workload digest, machine prefix digest}. A job whose exact digest
// misses every result tier but whose workload + prefix-invariant machine
// parameters match a stored checkpoint forks the simulation from it instead
// of replaying the prefix — the warm start covers machine state, not just
// the reference. sim.ResumeE's byte-identity contract keeps the rendered
// body, and therefore the content address, exactly what a full run would
// have produced.

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
// forking into; both replay in full. A checkpoint that fails to decode or
// apply is quarantined and the job falls back to a full replay — the tier
// can only ever save work, never fail a job.
func (s *Server) simTLS(j *Job, cfg sim.Config, built *workload.Built, r *Resolved) (*sim.Result, error) {
	if cfg.Inject != nil || r.Exp.SequentialSoftware() || s.store == nil {
		s.noteSim(false)
		return sim.RunE(cfg, built.Program)
	}
	key := snapshotKey(r.Spec, cfg)
	if s.breaker.Allow() {
		if res, forked, err := s.forkFrom(j, cfg, built, key); forked {
			return res, err
		}
	}

	// Full replay; capture the prefix checkpoint on the way through and
	// publish it for the next run of this {workload, prefix} group.
	res, snap, err := sim.RunCapture(cfg, built.Program)
	s.noteSim(false)
	if err == nil && snap != nil && s.breaker.Allow() {
		s.store.Put(casSnapNS, key, snap.Encode())
		s.bumpSnap(&s.counters.SnapshotPuts)
		s.jlog(slog.LevelInfo, "snapshot published",
			slog.String("correlation_id", j.corr),
			slog.String("job", j.id),
			slog.String("snapshot", key),
			slog.Uint64("cycle", snap.Cycle))
	}
	return res, err
}

// forkFrom resumes a job's simulation from the stored checkpoint under key.
// forked is false when the caller must replay in full: no checkpoint, or one
// that fails to decode or apply, which is quarantined. Once the checkpoint
// applies, the resumed run's outcome is the job's (see sim.ResumeE): a
// *sim.RunError — deadline, cycle budget, audit — fails the job, and the
// checkpoint stays.
func (s *Server) forkFrom(j *Job, cfg sim.Config, built *workload.Built, key string) (res *sim.Result, forked bool, err error) {
	snap, err := cas.Load(s.store, casSnapNS, key, sim.DecodeSnapshot)
	if errors.Is(err, cas.ErrNotFound) {
		s.bumpSnap(&s.counters.SnapshotMisses)
		return nil, false, nil
	}
	if err == nil {
		res, err = sim.ResumeE(cfg, built.Program, snap)
		if err == nil || errors.As(err, new(*sim.RunError)) {
			s.bumpSnap(&s.counters.SnapshotHits)
			s.noteSim(true)
			s.jlog(slog.LevelInfo, "job forked from snapshot",
				slog.String("correlation_id", j.corr),
				slog.String("job", j.id),
				slog.String("snapshot", key),
				slog.Uint64("cycle", snap.Cycle))
			return res, true, err
		}
		s.store.Quarantine(casSnapNS, key, err)
	}
	s.bumpSnap(&s.counters.SnapshotCorrupt)
	s.jlog(slog.LevelWarn, "snapshot quarantined",
		slog.String("correlation_id", j.corr),
		slog.String("job", j.id),
		slog.String("snapshot", key),
		slog.String("error", err.Error()))
	return nil, false, nil
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
