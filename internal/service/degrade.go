// Degraded-mode admission: the poison-digest quarantine and deadline-aware
// rejection. Both exist to stop the daemon from burning workers on jobs
// that are already known to end badly — a digest that keeps failing
// deterministically, or a deadline the current backlog provably cannot
// meet — and to tell the client when a retry is worth it instead.
package service

import (
	"fmt"
	"time"
)

// PoisonedError rejects a submission whose digest is quarantined: it failed
// deterministically Failures times within the poison TTL, so re-running it
// would burn a worker to reproduce a known failure. The HTTP layer maps it
// to 422 with Retry-After (the quarantine's remaining TTL).
type PoisonedError struct {
	Digest     string
	Failures   int
	LastKind   string
	RetryAfter time.Duration
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("service: digest %s quarantined after %d deterministic failures (last: %s)",
		e.Digest, e.Failures, e.LastKind)
}

// UnmeetableDeadlineError rejects a submission whose deadline is provably
// too tight: the observed mean service time plus the expected queue wait
// already exceeds it. Mapped to 429 with a computed Retry-After (when the
// backlog has drained, the same deadline may be feasible).
type UnmeetableDeadlineError struct {
	Deadline   time.Duration
	Estimate   time.Duration
	RetryAfter time.Duration
}

func (e *UnmeetableDeadlineError) Error() string {
	return fmt.Sprintf("service: deadline %v cannot be met (estimated %v to completion)",
		e.Deadline.Round(time.Millisecond), e.Estimate.Round(time.Millisecond))
}

// QueueFullError rejects a submission because the admission queue is at
// capacity, carrying the computed Retry-After (expected time for the
// backlog to open a slot). errors.Is(err, ErrQueueFull) holds, so existing
// callers keep working.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string { return ErrQueueFull.Error() }
func (e *QueueFullError) Is(target error) bool {
	return target == ErrQueueFull
}

// The poison quarantine: poisonThreshold deterministic failures within
// poisonTTL quarantine a digest, and each failure restarts the window, which
// is also how long the quarantine lasts. Quarantined digests fast-fail at
// admission (HTTP 422) instead of re-burning workers.
const (
	poisonThreshold = 3
	poisonTTL       = 10 * time.Minute
)

// poisonEntry tracks one digest's recent deterministic failures.
type poisonEntry struct {
	fails int
	until time.Time // observation window / quarantine expiry
	kind  string    // most recent failure kind
}

// deterministicFailure reports whether a failure kind indicts the job
// itself rather than the circumstances of this run. Timeouts, client
// cancellations, drain aborts and panics the chaos schedule injected say
// nothing about what a retry would do, so they never poison a digest.
func deterministicFailure(kind string) bool {
	switch kind {
	case "timeout", "cancelled", "drain", "chaos":
		return false
	}
	return true
}

// notePoisonLocked records one deterministic failure of digest. The window
// slides: each failure restarts the TTL, so a digest failing steadily stays
// quarantined. Caller holds s.mu.
func (s *Server) notePoisonLocked(digest string, f *Failure, now time.Time) {
	e := s.poison[digest]
	if e == nil || now.After(e.until) {
		e = &poisonEntry{}
		s.poison[digest] = e
	}
	e.fails++
	e.kind = f.Kind
	e.until = now.Add(poisonTTL)
}

// poisonedLocked reports whether digest is quarantined right now, expiring
// stale entries as a side effect. Caller holds s.mu.
func (s *Server) poisonedLocked(digest string, now time.Time) *PoisonedError {
	e := s.poison[digest]
	if e == nil {
		return nil
	}
	if now.After(e.until) {
		delete(s.poison, digest)
		return nil
	}
	if e.fails < poisonThreshold {
		return nil
	}
	return &PoisonedError{
		Digest:     digest,
		Failures:   e.fails,
		LastKind:   e.kind,
		RetryAfter: clampRetryAfter(e.until.Sub(now)),
	}
}

// meanServiceLocked is the observed mean per-job service time — the sum of
// the build, sim, and render stage means (each stage histogram observes
// exactly once per executed job). ok is false until the first job has
// executed: a cold server never second-guesses a deadline. Caller holds
// s.mu.
func (s *Server) meanServiceLocked() (time.Duration, bool) {
	var sum uint64
	cnt := s.stageMicros[stageSim].Count
	if cnt == 0 {
		return 0, false
	}
	for _, st := range []stage{stageBuild, stageSim, stageRender} {
		sum += s.stageMicros[st].Sum
	}
	return time.Duration(sum/cnt) * time.Microsecond, true
}

// backlogWaitLocked estimates how long a job admitted now waits for a
// worker: the jobs ahead of it (queued + in flight), served at the mean
// service rate by the worker pool. Caller holds s.mu.
func (s *Server) backlogWaitLocked(svc time.Duration) time.Duration {
	ahead := len(s.queue) + s.inFlight
	return time.Duration(ahead) * svc / time.Duration(s.opts.Workers)
}

// clampRetryAfter bounds a computed Retry-After to [1s, 60s]: never "now"
// (the condition that caused the rejection still holds), never so far out a
// client gives up on a queue that drains in seconds.
func clampRetryAfter(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > time.Minute {
		return time.Minute
	}
	return d
}

// retryAfterLocked computes the Retry-After for a queue-full rejection:
// the expected time for the backlog to open a slot, clamped. Without
// latency data it falls back to the floor. Caller holds s.mu.
func (s *Server) retryAfterLocked() time.Duration {
	svc, ok := s.meanServiceLocked()
	if !ok {
		return time.Second
	}
	return clampRetryAfter(s.backlogWaitLocked(svc))
}

// minJobTimeout is the floor on an effective per-job deadline: anything
// shorter than 10ms cannot even round-trip the pipeline bookkeeping and
// would reject every job at admission.
const minJobTimeout = 10 * time.Millisecond

// jobTimeout resolves a submission's effective deadline: the spec's own
// timeout_ms, floored at minJobTimeout and ceilinged by the server-wide
// -job-timeout (a client may ask for less time than the operator allows,
// never more); with no spec timeout the server-wide default applies. Zero
// means no deadline.
func (s *Server) jobTimeout(spec JobSpec) time.Duration {
	ceiling := s.opts.JobTimeout
	if spec.TimeoutMS == 0 {
		return ceiling
	}
	d := time.Duration(spec.TimeoutMS) * time.Millisecond
	if d < minJobTimeout {
		d = minJobTimeout
	}
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	return d
}
