package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/chaos"
	"subthreads/internal/sim"
	"subthreads/internal/telemetry"
	"subthreads/internal/workload"
)

// Options sizes the daemon.
type Options struct {
	// Workers is the simulation worker-pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO admission queue; default 64. A full
	// queue rejects submissions (HTTP 429) instead of buffering without
	// bound — backpressure is the service's overload story.
	QueueDepth int
	// DefaultMaxCycles caps jobs that set no cycle budget of their own
	// (the server-wide deadline); 0 leaves them unbounded.
	DefaultMaxCycles uint64
	// Paranoid forces the protocol invariant auditor on every job.
	Paranoid bool
	// Inject is a server-wide fault-injection spec applied to jobs that
	// carry none — the chaos-mode default for soak testing the daemon.
	Inject string
	// Logger receives the access and job-lifecycle logs. nil — the library
	// default — disables logging entirely: every logging site reduces to
	// one branch, keeping the embedded serving path allocation-clean.
	Logger *slog.Logger
	// FlightDir enables the failure flight recorder: a job that fails with
	// a structured *sim.RunError dumps the tail of its telemetry stream
	// (the one the SSE endpoint replays) as JSONL into this directory
	// (filename <job>-<correlation>.jsonl, path logged and attached to the
	// failure). "" disables the recorder.
	FlightDir string
	// FlightEvents is the length of the dumped tail; default 4096.
	FlightEvents int
	// Store is the persistent content-addressed tier under the result
	// cache. With a store, a restarted daemon serves previously-computed
	// results from byte one — no database load, no trace recording, no
	// simulation. It holds results only: programs and SEQUENTIAL reference
	// cycle counts stay in memory. nil keeps the result cache memory-only.
	Store *cas.Store
	// JobTimeout is the server-wide end-to-end deadline applied to jobs
	// that set no timeout_ms of their own, and the ceiling on the ones
	// that do. 0 disables the default deadline (paper-scale runs can take
	// arbitrarily long).
	JobTimeout time.Duration
	// Chaos, when non-nil, arms the deterministic fault schedule: it is
	// installed as the store's fault injector and consulted per job
	// execution for worker panics. Test/soak plumbing — see internal/chaos.
	Chaos *chaos.Chaos
	// RemoteFetch, when non-nil, is the cross-node cache tier: on a local
	// miss (memory and disk both empty), the daemon asks sibling replicas
	// for the digest's rendered result before falling back to recompute.
	// Wired by cmd/tlsd -peers through internal/cluster's per-node circuit
	// breakers; a fetched body is also published to the local store so
	// warmth spreads through the cluster.
	RemoteFetch func(ctx context.Context, digest string) RemoteResult
}

// RemoteResult is what one sibling-cache lookup found: the result body and
// the sibling it came from (for the log line), Body nil when no sibling
// held it, and how many siblings answered that they hold no result for the
// digest (404) or gave no usable answer: a transport error, a 5xx or other
// unexpected status, or an empty body. A sibling its breaker skips counts
// in neither.
type RemoteResult struct {
	Body     []byte
	From     string
	Misses   uint64
	Failures uint64
}

// Cache tiers: where a hit submission's bytes came from. The HTTP layer
// surfaces the tier on the X-Cache-Tier response header so clients (the
// benchmark's load generator, the router tests) can assert hit provenance
// without re-parsing logs.
const (
	// TierMemory: an existing completed job for this digest.
	TierMemory = "memory"
	// TierDedup: an in-flight job for this digest; the submission attached.
	TierDedup = "dedup"
	// TierDisk: the persistent store had the rendered body.
	TierDisk = "disk"
	// TierRemote: a sibling replica's cache had the rendered body.
	TierRemote = "remote"
)

// programBudget bounds the programs the daemon's build cache holds in
// memory: 16 MiB of packed trace entries, about four times the programs a
// serving stream reuses (perfbench serve's three NEW ORDER fork bases take
// about 4 MB). Every other program is used once, so holding it would only
// grow the heap by about a quarter of a megabyte per novel workload. An
// evicted program is rebuilt on its next use.
const programBudget = 16 << 20

// casResultNS is the store namespace for rendered result bodies, keyed by
// the resolved job digest — the same digest that keys the in-memory cache.
const casResultNS = "result"

// ErrQueueFull rejects a submission because the admission queue is at
// capacity; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("service: queue full")

// ErrDraining rejects a submission because the server is shutting down; the
// HTTP layer maps it to 503.
var ErrDraining = errors.New("service: draining")

// BadSpecError wraps a spec validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// Server is the simulation service: it admits JobSpecs into a bounded FIFO
// queue, runs them on a fixed worker pool sharing one workload build cache,
// content-addresses every result, and serves job state over HTTP (see
// http.go). Create with New; stop with Shutdown.
type Server struct {
	opts    Options
	builder *workload.Builder
	store   *cas.Store // nil = no persistent tier
	breaker *Breaker   // nil = no persistent tier to break around
	chaos   *chaos.Chaos
	mux     httpMux
	log     *slog.Logger // nil = logging disabled
	started time.Time

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	byDigest map[string]*Job
	poison   map[string]*poisonEntry

	// Metrics (guarded by mu). Latencies reuse the telemetry histogram so
	// /metrics speaks the same snapshot schema as the simulator's metrics.
	counters        Counters
	inFlight        int
	coldMicros      telemetry.Histogram // submit -> terminal, simulated jobs
	hitMicros       telemetry.Histogram // lookup time of memory cache-hit submissions
	diskHitMicros   telemetry.Histogram // lookup time of disk-warm hit submissions
	remoteHitMicros telemetry.Histogram // lookup time of sibling-cache hit submissions
	// stageMicros breaks the cold path down by pipeline segment (queue
	// wait, build, sim, render) for every executed job.
	stageMicros [numStages]telemetry.Histogram
}

// New starts a server: the worker pool is live on return. The caller owns
// shutdown via Shutdown.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.FlightEvents <= 0 {
		opts.FlightEvents = 4096
	}
	s := &Server{
		opts:     opts,
		builder:  workload.NewBuilder(),
		store:    opts.Store,
		chaos:    opts.Chaos,
		log:      opts.Logger,
		started:  time.Now(),
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     make(map[string]*Job),
		byDigest: make(map[string]*Job),
		poison:   make(map[string]*poisonEntry),
	}
	s.builder.SetBudget(programBudget)
	if opts.Store != nil {
		s.breaker = NewBreaker(diskBreakerThreshold, diskBreakerCooldown, diskBreakerSlowCall)
		s.breaker.OnChange(func(from, to string) {
			s.jlog(slog.LevelWarn, "cas breaker state changed",
				slog.String("from", from), slog.String("to", to))
		})
		opts.Store.SetObserver(s.breaker.Observe)
	}
	if opts.Chaos != nil && opts.Store != nil {
		opts.Store.SetFaults(opts.Chaos)
	}
	s.routes()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// normalize overlays the server-wide defaults a spec didn't set itself.
// This happens before Resolve, so the overlays are part of the digest —
// content addresses always name exactly what was simulated.
func (s *Server) normalize(spec JobSpec) JobSpec {
	if s.opts.Paranoid {
		spec.Paranoid = true
	}
	if spec.Inject == "" {
		spec.Inject = s.opts.Inject
	}
	if spec.MaxCycles == 0 {
		spec.MaxCycles = s.opts.DefaultMaxCycles
	}
	return spec
}

// Submit admits a spec. On a digest hit it returns the existing job —
// completed (a cache hit: the stored result serves without re-simulation)
// or still in flight (deduplicated: the submission attaches to the one run)
// — otherwise it enqueues a new job. tier names the cache tier that served
// a hit (TierMemory, TierDedup, TierDisk, TierRemote), which the HTTP layer
// stamps as the X-Cache-Tier header; "" is a miss that enqueued new work.
// corr tags this submission's lifecycle log lines and, when the submission
// creates a new job, becomes the job's correlation ID (stamped on its SSE
// events and flight record); "" generates a fresh ID. Errors:
// *BadSpecError, *QueueFullError (errors.Is ErrQueueFull), *PoisonedError,
// *UnmeetableDeadlineError, ErrDraining.
func (s *Server) Submit(spec JobSpec, corr string) (j *Job, tier string, err error) {
	if corr == "" {
		corr = NewCorrelationID()
	}
	spec = s.normalize(spec)
	start := time.Now()
	r, err := spec.Resolve()
	if err != nil {
		return nil, "", &BadSpecError{Err: err}
	}

	j, tier, from, queueLen, err := s.admit(spec, r, corr, start)
	switch {
	case err != nil:
		s.jlog(slog.LevelWarn, "job rejected",
			slog.String("correlation_id", corr),
			slog.String("digest", r.Digest),
			slog.String("reason", err.Error()))
	case tier == "":
		s.jlog(slog.LevelInfo, "job enqueued",
			slog.String("correlation_id", corr),
			slog.String("job", j.id),
			slog.String("digest", r.Digest),
			slog.Int("queue_len", queueLen))
	case tier == TierDisk:
		s.jlog(slog.LevelInfo, "job disk-warm hit",
			slog.String("correlation_id", corr),
			slog.String("job", j.id),
			slog.String("digest", r.Digest),
			slog.Int("bytes", len(j.Result())))
	case tier == TierRemote:
		s.jlog(slog.LevelInfo, "job remote-warm hit",
			slog.String("correlation_id", corr),
			slog.String("job", j.id),
			slog.String("digest", r.Digest),
			slog.String("peer", from),
			slog.Int("bytes", len(j.Result())))
	case tier == TierMemory:
		s.jlog(slog.LevelInfo, "job cache hit",
			slog.String("correlation_id", corr),
			slog.String("job", j.id),
			slog.String("job_correlation_id", j.corr),
			slog.String("digest", r.Digest))
	default:
		s.jlog(slog.LevelInfo, "job deduplicated",
			slog.String("correlation_id", corr),
			slog.String("job", j.id),
			slog.String("job_correlation_id", j.corr),
			slog.String("digest", r.Digest))
	}
	return j, tier, err
}

// admit is the tiered core of Submit: memory (an existing job for
// this digest), then the persistent store (a result computed by an earlier
// process — or an earlier life of this one), then the sibling replicas'
// caches (a result computed anywhere in the cluster), then a real enqueue.
// Disk and network I/O happen outside the server lock; cas single-flights
// concurrent loads of one key, and the locked re-check after each probe
// keeps the first installation the winner. from names the sibling that
// served a TierRemote hit ("" otherwise).
func (s *Server) admit(spec JobSpec, r *Resolved, corr string, start time.Time) (j *Job, tier, from string, queueLen int, err error) {
	s.mu.Lock()
	s.counters.JobsSubmitted++
	if prev, t := s.memoryHitLocked(r.Digest, start); t != "" {
		s.mu.Unlock()
		return prev, t, "", len(s.queue), nil
	}
	// Poison quarantine: a digest that keeps failing deterministically
	// fast-fails here instead of burning another worker. Checked before
	// the disk probe too — a quarantined digest has no stored result.
	if pe := s.poisonedLocked(r.Digest, start); pe != nil {
		s.counters.JobsRejectedPoisoned++
		s.mu.Unlock()
		return nil, "", "", 0, pe
	}
	s.mu.Unlock()

	if s.breaker.Allow() {
		if body, ok := s.store.Get(casResultNS, r.Digest); ok {
			now := time.Now()
			s.mu.Lock()
			defer s.mu.Unlock()
			// Another submission may have installed this digest while we were
			// reading the disk; serve that one instead of replacing it.
			if prev, t := s.memoryHitLocked(r.Digest, start); t != "" {
				return prev, t, "", len(s.queue), nil
			}
			j = s.installFinishedLocked(corr, spec, r, start, body, now)
			s.counters.CacheDiskHits++
			s.diskHitMicros.Observe(uint64(time.Since(start).Microseconds()))
			return j, TierDisk, "", len(s.queue), nil
		}
	}

	if s.opts.RemoteFetch != nil {
		got := s.opts.RemoteFetch(context.Background(), r.Digest)
		now := time.Now()
		s.mu.Lock()
		s.counters.CacheRemoteMisses += got.Misses
		s.counters.CacheRemoteFailures += got.Failures
		if got.Body != nil {
			if prev, t := s.memoryHitLocked(r.Digest, start); t != "" {
				s.mu.Unlock()
				return prev, t, "", len(s.queue), nil
			}
			j = s.installFinishedLocked(corr, spec, r, start, got.Body, now)
			s.counters.CacheRemoteHits++
			s.remoteHitMicros.Observe(uint64(time.Since(start).Microseconds()))
			queueLen = len(s.queue)
			s.mu.Unlock()
			// Spread the warmth: publish the fetched body locally so the next
			// restart — and the next sibling probe — finds it on this node.
			// Outside the lock (disk I/O), gated by the disk breaker.
			if s.breaker.Allow() {
				s.store.Put(casResultNS, r.Digest, got.Body)
			}
			return j, TierRemote, got.From, queueLen, nil
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check: a duplicate submission may have enqueued while we missed
	// the disk.
	if prev, t := s.memoryHitLocked(r.Digest, start); t != "" {
		return prev, t, "", len(s.queue), nil
	}
	if s.draining {
		return nil, "", "", 0, ErrDraining
	}
	// Deadline-aware admission: reject a deadline the observed service
	// rate and current backlog provably cannot meet, instead of admitting
	// a job whose only possible outcome is a timeout failure.
	timeout := s.jobTimeout(spec)
	if timeout > 0 {
		if svc, ok := s.meanServiceLocked(); ok {
			if wait := s.backlogWaitLocked(svc); wait+svc > timeout {
				s.counters.JobsRejectedDeadline++
				return nil, "", "", 0, &UnmeetableDeadlineError{
					Deadline:   timeout,
					Estimate:   wait + svc,
					RetryAfter: clampRetryAfter(wait),
				}
			}
		}
	}
	s.counters.CacheMisses++
	j = newJob(newJobID(), corr, spec, r, start)
	j.arm(timeout, start)
	select {
	case s.queue <- j:
	default:
		s.counters.JobsRejected++
		s.counters.CacheMisses-- // never admitted; keep the hit ratio honest
		j.release()
		return nil, "", "", 0, &QueueFullError{RetryAfter: s.retryAfterLocked()}
	}
	s.jobs[j.id] = j
	s.byDigest[r.Digest] = j
	go s.watchCancel(j)
	return j, "", "", len(s.queue), nil
}

// installFinishedLocked installs a pre-finished job for a body fetched from
// a warm tier (disk or a sibling replica): the submission gets a job whose
// result serves immediately, and future submissions of the digest are
// memory hits. Caller holds s.mu.
func (s *Server) installFinishedLocked(corr string, spec JobSpec, r *Resolved, start time.Time, body []byte, now time.Time) *Job {
	j := newJob(newJobID(), corr, spec, r, start)
	j.finish(body, nil, now)
	s.jobs[j.id] = j
	s.byDigest[r.Digest] = j
	return j
}

// memoryHitLocked classifies a digest hit on an existing job and counts it,
// returning the serving tier (TierMemory for a completed job, TierDedup for
// an in-flight one, "" for no hit). A failed job never serves as a hit (its
// digest claim is dropped on failure; the state check covers the window
// before the drop).
func (s *Server) memoryHitLocked(digest string, start time.Time) (*Job, string) {
	prev := s.byDigest[digest]
	if prev == nil || prev.State() == StateFailed {
		return nil, ""
	}
	if prev.State() == StateDone {
		s.counters.CacheHits++
		s.hitMicros.Observe(uint64(time.Since(start).Microseconds()))
		return prev, TierMemory
	}
	s.counters.DedupedInFlight++
	return prev, TierDedup
}

// CachedResult answers the sibling-cache probe (GET /v1/cache/{digest}): the
// stored bytes for a digest if this node already has them — a completed job
// in memory, or the persistent store (breaker-gated) — and the tier they
// came from. It never computes and never touches the admission queue, so a
// sibling probing N replicas costs N lookups, not N simulations.
func (s *Server) CachedResult(digest string) (body []byte, tier string, ok bool) {
	s.mu.Lock()
	s.counters.CacheProbes++
	prev := s.byDigest[digest]
	s.mu.Unlock()
	if prev != nil && prev.State() == StateDone {
		s.mu.Lock()
		s.counters.CacheProbeHits++
		s.mu.Unlock()
		return prev.Result(), TierMemory, true
	}
	if s.breaker.Allow() {
		if body, ok := s.store.Get(casResultNS, digest); ok {
			s.mu.Lock()
			s.counters.CacheProbeHits++
			s.mu.Unlock()
			return body, TierDisk, true
		}
	}
	return nil, "", false
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ErrDrainTimeout reports that Shutdown's grace period expired and the
// remaining jobs were cancelled (and reported as structured "drain"
// failures) rather than waited out. The shutdown itself still completed
// cleanly — the error is information, not a malfunction.
var ErrDrainTimeout = errors.New("service: drain deadline exceeded; stragglers cancelled")

// Shutdown stops admission (readiness flips immediately), drains every
// queued and in-flight job, and stops the worker pool. It returns nil on a
// clean drain. If ctx expires first, every straggler is cancelled — queued
// jobs fail immediately, running simulations abort at their next
// cancellation poll — and Shutdown waits for the pool to reap them before
// returning ErrDrainTimeout. It never hangs forever on a stuck job.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}

	n := s.cancelStragglers()
	s.jlog(slog.LevelWarn, "drain deadline exceeded; stragglers cancelled",
		slog.Int("jobs", n))
	<-drained
	if n > 0 {
		return fmt.Errorf("%w (%d job(s))", ErrDrainTimeout, n)
	}
	return nil
}

// cancelStragglers cancels every non-terminal job with the drain cause and
// reports how many there were.
func (s *Server) cancelStragglers() int {
	s.mu.Lock()
	var live []*Job
	for _, j := range s.jobs {
		switch j.State() {
		case StateQueued, StateRunning:
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	for _, j := range live {
		j.Cancel(errDrainCancelled)
	}
	return len(live)
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// testHookRunning, when set, is called by runJob after the job enters
// StateRunning and before the simulation starts — the seam the tests use to
// hold a worker in flight deterministically. Atomic so a test can clear it
// without synchronizing with every worker.
var testHookRunning atomic.Pointer[func(*Job)]

// watchCancel finishes a job whose cancellation fires while it is still
// queued: the worker that eventually pops it finds it claimed and skips.
// Exits as soon as the job reaches a terminal state by any path.
func (s *Server) watchCancel(j *Job) {
	select {
	case <-j.done:
		return
	case <-j.ctx.Done():
	}
	if !j.claim() {
		// A worker owns the job; the in-run cancellation poll aborts it.
		return
	}
	now := time.Now()
	cause := context.Cause(j.ctx)
	failure := &Failure{
		Kind:  cancelKind(cause),
		Error: cause.Error(),
		Repro: j.res.ReproCommand(),
	}
	j.finish(nil, failure, now)
	j.release()

	s.mu.Lock()
	s.counters.JobsFailed++
	if failure.Kind == "timeout" {
		s.counters.JobsTimedOut++
	} else {
		s.counters.JobsCancelled++
	}
	// The digest is free again immediately: a resubmission starts fresh
	// instead of attaching to a corpse.
	if s.byDigest[j.res.Digest] == j {
		delete(s.byDigest, j.res.Digest)
	}
	s.mu.Unlock()
	s.jlog(slog.LevelWarn, "job cancelled while queued",
		slog.String("correlation_id", j.corr),
		slog.String("job", j.id),
		slog.String("digest", j.res.Digest),
		slog.String("kind", failure.Kind),
		slog.String("cause", cause.Error()))
}

// runJob executes one job end to end and publishes its terminal state.
func (s *Server) runJob(j *Job) {
	if !j.claim() {
		// Cancelled while queued: watchCancel already finished it; popping
		// it here freed its queue slot.
		return
	}
	wait := j.setRunning(time.Now())
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	s.jlog(slog.LevelInfo, "job started",
		slog.String("correlation_id", j.corr),
		slog.String("job", j.id),
		slog.Float64("queue_wait_ms", ms(wait)))

	if hook := testHookRunning.Load(); hook != nil {
		(*hook)(j)
	}
	body, ref, failure := s.execute(j)
	finished := time.Now()
	j.finish(body, failure, finished)
	j.release()
	stages := j.stageDurations()

	s.mu.Lock()
	s.inFlight--
	if failure != nil {
		s.counters.JobsFailed++
		switch failure.Kind {
		case "timeout":
			s.counters.JobsTimedOut++
		case "cancelled", "drain":
			s.counters.JobsCancelled++
		}
		// A failed run is not a servable result: drop its digest claim so
		// a resubmission retries instead of replaying the failure forever.
		if s.byDigest[j.res.Digest] == j {
			delete(s.byDigest, j.res.Digest)
		}
		// Deterministic failures feed the poison quarantine; timeouts,
		// cancellations and injected chaos say nothing about a retry and
		// never do.
		if deterministicFailure(failure.Kind) {
			s.notePoisonLocked(j.res.Digest, failure, finished)
		}
	} else {
		s.counters.JobsCompleted++
		delete(s.poison, j.res.Digest)
	}
	for st := stage(0); st < numStages; st++ {
		s.stageMicros[st].Observe(uint64(stages[st].Microseconds()))
	}
	s.coldMicros.Observe(uint64(finished.Sub(j.submitted).Microseconds()))
	s.mu.Unlock()

	if failure == nil && s.breaker.Allow() {
		// Publish the rendered body so a future process — or this one
		// after a restart — serves the digest from disk. Outside the lock:
		// Put is disk I/O. Gated by the breaker: while the disk is sick,
		// skipping the publish is the degradation, not a loss.
		s.store.Put(casResultNS, j.res.Digest, body)
	}

	if failure != nil {
		s.jlog(slog.LevelError, "job failed",
			slog.String("correlation_id", j.corr),
			slog.String("job", j.id),
			slog.String("digest", j.res.Digest),
			slog.String("kind", failure.Kind),
			slog.Uint64("cycle", failure.Cycle),
			slog.String("error", failure.Error),
			slog.String("flight_record", failure.FlightRecord),
			slog.String("repro", failure.Repro))
		return
	}
	s.jlog(slog.LevelInfo, "job completed",
		slog.String("correlation_id", j.corr),
		slog.String("job", j.id),
		slog.String("digest", j.res.Digest),
		slog.Int("bytes", len(body)),
		slog.String("reference", ref),
		slog.Float64("queue_wait_ms", ms(stages[stageQueue])),
		slog.Float64("build_ms", ms(stages[stageBuild])),
		slog.Float64("sim_ms", ms(stages[stageSim])),
		slog.Float64("render_ms", ms(stages[stageRender])),
		slog.Float64("total_ms", ms(finished.Sub(j.submitted))))
}

// ms renders a duration as fractional milliseconds for log attributes.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// execute runs the simulation for j and renders the result document — the
// exact bytes `tlssim -json` prints for the same spec — and names the tier
// its SEQUENTIAL reference came from. A structured *sim.RunError (and,
// defensively, any other panic) becomes a Failure; the daemon never dies
// with a job. A panic the chaos schedule injected fails as kind "chaos",
// which says nothing about a retry; an organic one as kind "panic".
func (s *Server) execute(j *Job) (body []byte, ref string, failure *Failure) {
	defer func() {
		if p := recover(); p != nil {
			if re, ok := p.(*sim.RunError); ok {
				failure = s.failureFrom(j, re)
				return
			}
			kind := "panic"
			if _, ok := p.(chaos.Panic); ok {
				kind = "chaos"
			}
			failure = &Failure{
				Kind:  kind,
				Error: fmt.Sprint(p),
				Repro: j.res.ReproCommand(),
			}
		}
	}()

	if s.chaos != nil {
		if p, ok := s.chaos.WorkerPanic(); ok {
			// The scheduled worker fault: thrown here so it travels the
			// same recover path an organic worker bug would.
			panic(p)
		}
	}

	r := j.res
	cfg := r.Config()
	if j.ctx != nil {
		// The serving deadline / disconnect signal, polled by the sim loop
		// every CancelPollCycles. context.Cause is nil while the context
		// lives — exactly the contract sim.Config.Cancel wants.
		jctx := j.ctx
		cfg.Cancel = func() error { return context.Cause(jctx) }
	}
	cfg.Telemetry = j.fan

	t := time.Now()
	if f := s.abortedFailure(j, 0); f != nil {
		return nil, "", f
	}
	// The reference lookup counts as build time: on a miss, the build
	// records the program the reference run simulates.
	j.enterStage(stageBuild, t)
	seqCycles, ok := s.builder.Reference(r.Spec)
	if ok {
		ref = workload.RefMemory
	}
	selfRef := !ok && r.Exp.SequentialSoftware() && cfg.Inject == nil && sim.FullDigest(cfg) == seqDigest
	var built, seq *workload.Built
	if ok || selfRef {
		built = s.builder.Build(r.Spec, r.Exp.SequentialSoftware())
	} else {
		built, seq = s.builder.BuildWithReference(r.Spec, r.Exp.SequentialSoftware())
	}
	t = j.leaveStage(stageBuild, t)
	j.enterStage(stageSim, t)
	res, err := sim.RunE(cfg, built.Program)
	s.mu.Lock()
	s.counters.JobsReplayed++
	s.mu.Unlock()
	t = j.leaveStage(stageSim, t)
	if err != nil {
		return nil, "", s.simFailure(j, err)
	}
	if f := s.abortedFailure(j, res.Cycles); f != nil {
		return nil, "", f
	}
	switch {
	case selfRef:
		// The job's own run was the reference run.
		s.builder.PutReference(r.Spec, res.Cycles)
		seqCycles, ref = res.Cycles, workload.RefRun
	case seq != nil:
		if seqCycles, t, err = s.reference(j, cfg, seq, t); err != nil {
			return nil, "", s.simFailure(j, err)
		}
		ref = workload.RefRun
	}

	j.enterStage(stageRender, t)
	var buf bytes.Buffer
	err = r.WriteResult(&buf, built, res, seqCycles)
	j.leaveStage(stageRender, t)
	if err != nil {
		return nil, "", &Failure{Kind: "encode", Error: err.Error(), Repro: r.ReproCommand()}
	}
	return buf.Bytes(), ref, nil
}

// testHookReference, when set, is called by reference just before the
// SEQUENTIAL simulation starts — the seam the tests use to act on a job
// inside its reference run deterministically.
var testHookReference atomic.Pointer[func(*Job)]

// reference simulates seq, the one-use SEQUENTIAL program of j's workload,
// on Machine(Sequential) under j's cancellation (sim stage), and returns its
// cycle count with the stage clock t advanced past the run. It runs when
// memory holds no reference for the workload and j's own run is not the
// reference run, as a SEQUENTIAL job's on the unmodified machine without
// fault injection is. Only a completed run publishes its count
// (PutReference): a job that fails here fails alone and leaves nothing
// behind.
func (s *Server) reference(j *Job, cfg sim.Config, seq *workload.Built, t time.Time) (cycles uint64, now time.Time, err error) {
	j.enterStage(stageSim, t)
	if hook := testHookReference.Load(); hook != nil {
		(*hook)(j)
	}
	m := workload.Machine(workload.Sequential)
	m.Cancel = cfg.Cancel
	res, err := sim.RunE(m, seq.Program)
	if err == nil {
		cycles = res.Cycles
		s.builder.PutReference(j.res.Spec, cycles)
	}
	return cycles, j.leaveStage(stageSim, t), err
}

// seqDigest identifies the reference machine, Machine(Sequential).
var seqDigest = sim.FullDigest(workload.Machine(workload.Sequential))

// simFailure converts a simulation's error into the job's Failure.
func (s *Server) simFailure(j *Job, err error) *Failure {
	var re *sim.RunError
	if errors.As(err, &re) {
		return s.failureFrom(j, re)
	}
	return &Failure{Kind: "error", Error: err.Error(), Repro: j.res.ReproCommand()}
}

// failureFrom converts a structured simulation error into the job's Failure
// and, when the flight recorder is armed, dumps the job's telemetry tail.
// A sim-level "cancelled" abandonment is re-labeled by its context cause —
// "timeout" for a deadline, "drain" for shutdown, "cancelled" otherwise —
// so the status tells the submitter what actually happened.
func (s *Server) failureFrom(j *Job, re *sim.RunError) *Failure {
	kind := re.Kind
	if kind == "cancelled" && j.ctx != nil {
		if cause := context.Cause(j.ctx); cause != nil {
			kind = cancelKind(cause)
		}
	}
	return &Failure{
		Kind:         kind,
		Cycle:        re.Cycle,
		Error:        re.Error(),
		Repro:        j.res.ReproCommand(),
		FlightRecord: s.dumpFlight(j),
	}
}

// abortedFailure reports a between-stage cancellation: the job's context
// fired while no simulation was running to poll it (before the build, or
// between the TLS and sequential passes). nil while the job is live.
func (s *Server) abortedFailure(j *Job, cycle uint64) *Failure {
	if j.ctx == nil {
		return nil
	}
	cause := context.Cause(j.ctx)
	if cause == nil {
		return nil
	}
	return &Failure{
		Kind:         cancelKind(cause),
		Cycle:        cycle,
		Error:        cause.Error(),
		Repro:        j.res.ReproCommand(),
		FlightRecord: s.dumpFlight(j),
	}
}

// dumpFlight writes the last Options.FlightEvents events of the job's
// telemetry stream as JSONL under Options.FlightDir and returns the path ("" when the recorder is disabled
// or the dump fails — the job's failure is never masked by a dump error).
func (s *Server) dumpFlight(j *Job) string {
	if s.opts.FlightDir == "" {
		return ""
	}
	if err := os.MkdirAll(s.opts.FlightDir, 0o755); err != nil {
		s.jlog(slog.LevelWarn, "flight record not written",
			slog.String("correlation_id", j.corr),
			slog.String("job", j.id),
			slog.String("error", err.Error()))
		return ""
	}
	path := filepath.Join(s.opts.FlightDir, j.id+"-"+j.corr+".jsonl")
	f, err := os.Create(path)
	if err == nil {
		evs := j.fan.Events()
		err = telemetry.EncodeJSONL(f, evs[max(0, len(evs)-s.opts.FlightEvents):])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.jlog(slog.LevelWarn, "flight record not written",
			slog.String("correlation_id", j.corr),
			slog.String("job", j.id),
			slog.String("path", path),
			slog.String("error", err.Error()))
		return ""
	}
	return path
}

// Counters are the daemon's event counts. Server keeps them under its lock
// and Metrics embeds a copy, so each is declared once for both /metrics
// forms.
type Counters struct {
	JobsSubmitted        uint64 `json:"jobs_submitted" prom:"jobs_submitted_total Job submissions admitted or rejected."`
	JobsCompleted        uint64 `json:"jobs_completed" prom:"jobs_completed_total Jobs that finished with a servable result."`
	JobsFailed           uint64 `json:"jobs_failed" prom:"jobs_failed_total Jobs that ended in a structured failure."`
	JobsRejected         uint64 `json:"jobs_rejected_queue_full" prom:"jobs_rejected_total Submissions rejected because the queue was full."`
	JobsTimedOut         uint64 `json:"jobs_timed_out" prom:"jobs_timeout_total Jobs abandoned on their end-to-end deadline."`
	JobsCancelled        uint64 `json:"jobs_cancelled" prom:"jobs_cancelled_total Jobs abandoned by client disconnect, DELETE, or shutdown drain."`
	JobsRejectedPoisoned uint64 `json:"jobs_rejected_poisoned" prom:"jobs_rejected_poisoned_total Submissions fast-failed on a quarantined digest."`
	JobsRejectedDeadline uint64 `json:"jobs_rejected_deadline" prom:"jobs_rejected_deadline_total Submissions rejected as provably unable to meet their deadline."`

	CacheHits       uint64 `json:"cache_hits" prom:"cache_hits_total Submissions served from the in-memory result cache."`
	CacheDiskHits   uint64 `json:"cache_disk_hits" prom:"cache_disk_hits_total Submissions served from the persistent result store."`
	CacheRemoteHits uint64 `json:"cache_remote_hits" prom:"cache_remote_hits_total Submissions served from a sibling replica's cache."`
	CacheMisses     uint64 `json:"cache_misses" prom:"cache_misses_total Submissions that required a new simulation."`
	DedupedInFlight uint64 `json:"deduped_in_flight" prom:"cache_deduped_total Submissions attached to an already in-flight duplicate."`
	CacheProbes     uint64 `json:"cache_probes" prom:"cache_probes_total Sibling-cache probes answered (GET /v1/cache/{digest})."`
	CacheProbeHits  uint64 `json:"cache_probe_hits" prom:"cache_probe_hits_total Sibling-cache probes that found a stored result."`

	// The -peers tier's sibling fetches that found nothing (RemoteResult):
	// a sibling up but without the digest, and one that failed.
	CacheRemoteMisses   uint64 `json:"cache_remote_misses" prom:"cache_remote_misses_total Sibling-cache fetches answered 404: the sibling holds no result for the digest."`
	CacheRemoteFailures uint64 `json:"cache_remote_failures" prom:"cache_remote_failures_total Sibling-cache fetches that failed: transport error, 5xx or other unexpected status, or an empty body."`

	// JobsForked and JobsReplayed split executed main simulations into
	// forked and full runs. tlsd no longer forks, so nothing increments
	// JobsForked and JobsReplayed counts every executed main simulation.
	// Both stay only until the checkpoint layer's benchmark step (ROADMAP)
	// stops perfbench/serve.go from reading them.
	JobsForked   uint64 `json:"jobs_forked" prom:"jobs_forked_total Executed jobs whose main simulation forked from a checkpoint."`
	JobsReplayed uint64 `json:"jobs_replayed" prom:"jobs_replayed_total Executed jobs whose main simulation ran in full."`
}

// Metrics is the /metrics snapshot: queue pressure, worker occupancy, cache
// effectiveness, job outcomes, and latency distributions (microseconds,
// telemetry histogram schema). Each field's json tag names it in the JSON
// form and its prom tag in the Prometheus form (telemetry.PromWriter.Struct).
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds" prom:"uptime_seconds Seconds since the daemon started."`
	Workers       int     `json:"workers" prom:"workers Simulation worker-pool size."`
	QueueDepth    int     `json:"queue_depth" prom:"queue_depth Jobs waiting in the admission queue."`
	QueueCapacity int     `json:"queue_capacity" prom:"queue_capacity Admission queue capacity."`
	InFlight      int     `json:"in_flight" prom:"jobs_in_flight Jobs currently simulating."`

	Counters
	PoisonedDigests int     `json:"poisoned_digests" prom:"poisoned_digests Digests currently in the poison quarantine window."`
	CacheEntries    int     `json:"cache_entries" prom:"cache_entries Distinct digests with a live job or stored result."`
	CacheHitRatio   float64 `json:"cache_hit_ratio" prom:"cache_hit_ratio Fraction of classified submissions served without new work (0 until the first job)."`

	ColdLatencyMicros      telemetry.HistogramSnapshot `json:"cold_latency_micros" prom:"job_cold_latency_microseconds Submit-to-terminal latency of executed jobs."`
	HitLatencyMicros       telemetry.HistogramSnapshot `json:"cache_hit_latency_micros" prom:"cache_hit_latency_microseconds Lookup latency of memory cache-hit submissions."`
	DiskHitLatencyMicros   telemetry.HistogramSnapshot `json:"disk_hit_latency_micros" prom:"cache_disk_hit_latency_microseconds Lookup latency of disk-warm hit submissions (includes the store read)."`
	RemoteHitLatencyMicros telemetry.HistogramSnapshot `json:"remote_hit_latency_micros" prom:"cache_remote_hit_latency_microseconds Lookup latency of sibling-cache hit submissions (includes the network fetch)."`

	// CAS is the persistent store's own view — hits, misses, evictions,
	// quarantined entries, resident set, and disk I/O latencies. nil when
	// the daemon runs without a cache directory.
	CAS *cas.Stats `json:"cas,omitempty" prom:"cas_"`
	// Breaker is the disk-tier circuit breaker's state and counters. nil
	// without a persistent store.
	Breaker *BreakerStats `json:"cas_breaker,omitempty" prom:"cas_breaker_"`
	// Chaos counts the faults the -chaos schedule has delivered. nil when
	// chaos is off.
	Chaos *chaos.Stats `json:"chaos,omitempty" prom:"chaos_"`
	// Builder is the workload build cache's tier split: programs from
	// memory and built, and SEQUENTIAL references from memory and from a
	// run.
	Builder workload.BuildStats `json:"builder" prom:"builder_"`

	// Per-stage breakdown of the cold path, observed once per executed job:
	// queue wait, workload build, simulation, result render.
	QueueWaitMicros     telemetry.HistogramSnapshot `json:"queue_wait_micros" prom:"job_stage_latency_microseconds{stage=queue} Executed-job latency by pipeline stage (queue wait, workload build, simulation, result render)."`
	BuildLatencyMicros  telemetry.HistogramSnapshot `json:"build_latency_micros" prom:"job_stage_latency_microseconds{stage=build}"`
	SimLatencyMicros    telemetry.HistogramSnapshot `json:"sim_latency_micros" prom:"job_stage_latency_microseconds{stage=sim}"`
	RenderLatencyMicros telemetry.HistogramSnapshot `json:"render_latency_micros" prom:"job_stage_latency_microseconds{stage=render}"`
}

// MetricsSnapshot captures the current serving metrics.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Workers:         s.opts.Workers,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.opts.QueueDepth,
		InFlight:        s.inFlight,
		Counters:        s.counters,
		PoisonedDigests: len(s.poison),
		CacheEntries:    len(s.byDigest),

		ColdLatencyMicros:      s.coldMicros.Snapshot(),
		HitLatencyMicros:       s.hitMicros.Snapshot(),
		DiskHitLatencyMicros:   s.diskHitMicros.Snapshot(),
		RemoteHitLatencyMicros: s.remoteHitMicros.Snapshot(),

		QueueWaitMicros:     s.stageMicros[stageQueue].Snapshot(),
		BuildLatencyMicros:  s.stageMicros[stageBuild].Snapshot(),
		SimLatencyMicros:    s.stageMicros[stageSim].Snapshot(),
		RenderLatencyMicros: s.stageMicros[stageRender].Snapshot(),

		Builder: s.builder.Stats(),
	}
	if s.store != nil {
		st := s.store.Stats()
		m.CAS = &st
		bs := s.breaker.Stats()
		m.Breaker = &bs
	}
	if s.chaos != nil {
		cs := s.chaos.Stats()
		m.Chaos = &cs
	}
	if served := m.CacheHits + m.CacheDiskHits + m.CacheRemoteHits + m.DedupedInFlight + m.CacheMisses; served > 0 {
		m.CacheHitRatio = float64(m.CacheHits+m.CacheDiskHits+m.CacheRemoteHits+m.DedupedInFlight) / float64(served)
	}
	return m
}
