package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"subthreads/internal/telemetry"
)

// State is a job's lifecycle position. Jobs move strictly
// queued -> running -> done | failed.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning State = "running"
	// StateDone: finished; the result body is cached and servable.
	StateDone State = "done"
	// StateFailed: the simulation ended with a structured error (watchdog,
	// audit, cycle budget); the failure is in the status, the daemon lives.
	StateFailed State = "failed"
)

// Failure is the job-status form of a *sim.RunError: what kind of failure,
// when, and the exact CLI command that reproduces it.
type Failure struct {
	Kind  string `json:"kind"`
	Cycle uint64 `json:"cycle"`
	Error string `json:"error"`
	Repro string `json:"repro"`
	// FlightRecord is the path of the flight-recorder JSONL dump written
	// for this failure (empty when the recorder is disabled).
	FlightRecord string `json:"flight_record,omitempty"`
}

// stage indexes the serving-pipeline segments whose latency the daemon
// accounts separately: queue wait, workload build, simulation, and result
// rendering. The build and sim stages each accumulate both the TLS and the
// sequential-reference passes.
type stage int

const (
	stageQueue stage = iota
	stageBuild
	stageSim
	stageRender
	numStages
)

var stageNames = [numStages]string{"queue", "build", "sim", "render"}

func (st stage) String() string { return stageNames[st] }

// Job is one admitted simulation. All mutable state is behind mu; the
// identity fields (id, correlation ID, spec, resolved form, sinks) are set
// at creation and never change.
type Job struct {
	id string
	// corr is the correlation ID of the submission that created the job; it
	// stamps the job's SSE events, log lines, and flight-record filename.
	corr string
	res  *Resolved

	// fan retains the job's full telemetry stream and feeds the SSE
	// endpoint and the flight recorder; it is closed when the job finishes,
	// completing the stream.
	fan *telemetry.Fanout

	// done is closed when the job reaches a terminal state.
	done chan struct{}

	// ctx carries the job's deadline and cancellation signal; the worker
	// threads it into sim.Config.Cancel and checks it between pipeline
	// stages. nil on jobs that never execute (cache and disk-warm hits).
	ctx context.Context
	// cancelCause cancels ctx with an explicit cause — the cause picks the
	// Failure kind ("timeout" | "cancelled" | "drain").
	cancelCause context.CancelCauseFunc
	// stopTimer releases the deadline timer once the job is terminal.
	stopTimer context.CancelFunc

	mu        sync.Mutex
	spec      JobSpec
	state     State
	stage     stage
	stageFrom time.Time
	stageDur  [numStages]time.Duration
	submitted time.Time
	finished  time.Time
	body      []byte
	failure   *Failure
	// claimed settles the race between the worker that pops the job and a
	// canceller that fires while it is still queued: exactly one of them
	// executes/finishes the job.
	claimed bool
	// waiters counts live synchronous watchers (?wait=1 submissions);
	// detached marks that at least one asynchronous submitter wants the
	// result regardless of connections. A job whose last waiter disconnects
	// with no detached submitter is cancelled — nobody is listening.
	waiters  int
	detached bool
}

func newJob(id, corr string, spec JobSpec, r *Resolved, now time.Time) *Job {
	return &Job{
		id:        id,
		corr:      corr,
		res:       r,
		fan:       telemetry.NewFanout(),
		done:      make(chan struct{}),
		spec:      spec,
		state:     StateQueued,
		stageFrom: now,
		submitted: now,
	}
}

// Cancellation causes: the cause a job context was cancelled with selects
// the structured Failure kind reported for the abandoned run.
var (
	// errWatchersGone cancels a job whose last synchronous watcher
	// disconnected with no asynchronous submitter attached.
	errWatchersGone = errors.New("service: all watchers disconnected")
	// errDrainCancelled cancels stragglers when the shutdown grace expires.
	errDrainCancelled = errors.New("service: cancelled by shutdown drain")
	// errCancelRequested cancels a job on DELETE /v1/jobs/{id}.
	errCancelRequested = errors.New("service: cancelled by request")
)

// cancelKind maps a context cause onto the Failure kind.
func cancelKind(cause error) string {
	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(cause, errDrainCancelled):
		return "drain"
	default:
		return "cancelled"
	}
}

// arm attaches the job's cancellation context: an optional deadline of
// timeout from now (the deadline covers queue wait too — it is the
// submitter's end-to-end budget, not a running-time budget).
func (j *Job) arm(timeout time.Duration, now time.Time) {
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancelCause = cancel
	if timeout > 0 {
		j.ctx, j.stopTimer = context.WithDeadline(ctx, now.Add(timeout))
	} else {
		j.ctx, j.stopTimer = ctx, func() {}
	}
}

// Cancel cancels the job with the given cause. A no-op on jobs without a
// cancellation context (cache hits) and on already-terminal jobs (the
// context fires, but nobody is listening anymore).
func (j *Job) Cancel(cause error) {
	if j.cancelCause != nil {
		j.cancelCause(cause)
	}
}

// release frees the context resources (deadline timer, cause slot) once the
// job is terminal.
func (j *Job) release() {
	if j.stopTimer != nil {
		j.stopTimer()
	}
	if j.cancelCause != nil {
		j.cancelCause(context.Canceled)
	}
}

// claim resolves who owns the job's execution: the first caller (the worker
// that popped it, or a canceller that fired while it was queued) wins and
// must drive it to a terminal state; everyone else backs off.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed {
		return false
	}
	j.claimed = true
	return true
}

// detach marks that an asynchronous submitter wants the result regardless
// of who stays connected: watcher bookkeeping never cancels a detached job.
func (j *Job) detach() {
	j.mu.Lock()
	j.detached = true
	j.mu.Unlock()
}

// addWaiter registers a synchronous watcher.
func (j *Job) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// removeWaiter drops a synchronous watcher; the last one leaving a live,
// non-detached job cancels it — its result has no audience.
func (j *Job) removeWaiter() {
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0 && !j.detached && j.state != StateDone && j.state != StateFailed
	j.mu.Unlock()
	if abandon {
		j.Cancel(errWatchersGone)
	}
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// CorrelationID returns the correlation ID of the submission that created
// the job.
func (j *Job) CorrelationID() string { return j.corr }

// Digest returns the job's content address.
func (j *Job) Digest() string { return j.res.Digest }

// enterStage marks the pipeline segment the job is currently in (surfaced
// by /debug/requests) and restarts the segment clock.
func (j *Job) enterStage(st stage, now time.Time) {
	j.mu.Lock()
	j.stage = st
	j.stageFrom = now
	j.mu.Unlock()
}

// addStage charges d to one pipeline segment.
func (j *Job) addStage(st stage, d time.Duration) {
	j.mu.Lock()
	j.stageDur[st] += d
	j.mu.Unlock()
}

// leaveStage charges the time since from to st and returns the new clock
// reading — the boundary between two segments is read once.
func (j *Job) leaveStage(st stage, from time.Time) time.Time {
	now := time.Now()
	j.addStage(st, now.Sub(from))
	return now
}

// stageDurations snapshots the per-segment time charged so far.
func (j *Job) stageDurations() [numStages]time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stageDur
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events returns the job's telemetry fan-out (live during the run, complete
// and closed afterwards).
func (j *Job) Events() *telemetry.Fanout { return j.fan }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the rendered result body, or nil unless the job is done.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.body
}

// setRunning transitions queued -> running, charging the elapsed time to
// the queue-wait stage; it returns that wait for the lifecycle log.
func (j *Job) setRunning(now time.Time) time.Duration {
	j.mu.Lock()
	j.state = StateRunning
	wait := now.Sub(j.submitted)
	j.stageDur[stageQueue] = wait
	j.stageFrom = now
	j.mu.Unlock()
	return wait
}

// finish records the terminal state, closes the done channel, and completes
// the telemetry stream.
func (j *Job) finish(body []byte, failure *Failure, now time.Time) {
	j.mu.Lock()
	if failure != nil {
		j.state = StateFailed
		j.failure = failure
	} else {
		j.state = StateDone
		j.body = body
	}
	j.finished = now
	j.mu.Unlock()
	j.fan.Close()
	close(j.done)
}

// Status is the JSON view of a job (GET /v1/jobs/{id}).
type Status struct {
	ID     string  `json:"id"`
	State  State   `json:"state"`
	Digest string  `json:"digest"`
	Spec   JobSpec `json:"spec"`
	// Submitted is when the job was admitted (RFC 3339, UTC).
	Submitted string `json:"submitted"`
	// ElapsedMS is queue+run wall time so far (or total, once terminal).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Failure carries the structured error of a failed job.
	Failure *Failure `json:"failure,omitempty"`
	// ResultURL / EventsURL are the job's other endpoints.
	ResultURL string `json:"result_url"`
	EventsURL string `json:"events_url"`
}

// StatusAt renders the job's status as of now.
func (j *Job) StatusAt(now time.Time) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := now
	if !j.finished.IsZero() {
		end = j.finished
	}
	return Status{
		ID:        j.id,
		State:     j.state,
		Digest:    j.res.Digest,
		Spec:      j.spec,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		ElapsedMS: float64(end.Sub(j.submitted).Microseconds()) / 1000,
		Failure:   j.failure,
		ResultURL: "/v1/jobs/" + j.id + "/result",
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
}
