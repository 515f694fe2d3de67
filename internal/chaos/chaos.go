// Package chaos is the serving-layer analogue of internal/inject: a seeded,
// deterministic fault schedule for the daemon's infrastructure rather than
// the simulated machine. It perturbs the persistent CAS tier (latency
// spikes, injected I/O errors, torn writes) and the job workers (panics
// mid-execution), exercising exactly the degradation paths the service
// claims to survive — breaker trips, quarantine, retry — without ever
// touching simulation results: a response that is served at all must still
// be byte-identical to tlssim -json.
//
// Every decision is a pure function of (seed, fault category, per-category
// operation counter), so a schedule reproduces from its flag line alone and
// is independent of goroutine interleaving across categories. Within one
// category, concurrent operations race for counter positions, but the set
// of positions that fire is fixed by the seed — the same proportion and
// pattern of faults lands every run.
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/inject"
)

// ErrInjected is the error injected disk faults carry; consumers can
// errors.Is it to distinguish scheduled chaos from organic failures in
// logs and tests.
var ErrInjected = errors.New("chaos: injected I/O error")

// Config parameterizes one chaos schedule. Every knob is a "one in N"
// proportion (0 disables that fault class).
type Config struct {
	// Seed selects the schedule; equal seeds give equal schedules.
	Seed uint64
	// DiskErrEvery fails ~1/N disk loads and stores with ErrInjected.
	DiskErrEvery uint64
	// SlowEvery stalls ~1/N disk operations by SlowMS before they run.
	SlowEvery uint64
	// SlowMS is the injected latency spike, in milliseconds.
	SlowMS uint64
	// TornEvery tears ~1/N disk stores: the frame is truncated on disk
	// while the write reports success (latent corruption, detected and
	// quarantined by a later load).
	TornEvery uint64
	// PanicEvery panics ~1/N job executions inside the worker.
	PanicEvery uint64
}

// DefaultConfig returns a moderate schedule: roughly one in eight disk ops
// slow or failing, one in sixteen stores torn, one in ten jobs panicking.
func DefaultConfig() Config {
	return Config{Seed: 1, DiskErrEvery: 8, SlowEvery: 8, SlowMS: 5, TornEvery: 16, PanicEvery: 10}
}

// Parse reads a "-chaos" flag value: comma-separated key=value pairs over
// the defaults, e.g. "seed=7,disk-err=4,slow=8,slow-ms=20,torn=8,panic=6".
// An empty string is an error — chaos off is expressed by not passing the
// flag.
func Parse(s string) (Config, error) {
	cfg := DefaultConfig()
	if strings.TrimSpace(s) == "" {
		return cfg, fmt.Errorf("chaos: empty spec")
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: %q is not key=value", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad value in %q: %v", part, err)
		}
		switch strings.TrimSpace(key) {
		case "seed":
			cfg.Seed = n
		case "disk-err":
			cfg.DiskErrEvery = n
		case "slow":
			cfg.SlowEvery = n
		case "slow-ms":
			cfg.SlowMS = n
		case "torn":
			cfg.TornEvery = n
		case "panic":
			cfg.PanicEvery = n
		default:
			return cfg, fmt.Errorf("chaos: unknown key %q", key)
		}
	}
	return cfg, nil
}

// String renders the config back into Parse's format (the repro line).
func (c Config) String() string {
	return fmt.Sprintf("seed=%d,disk-err=%d,slow=%d,slow-ms=%d,torn=%d,panic=%d",
		c.Seed, c.DiskErrEvery, c.SlowEvery, c.SlowMS, c.TornEvery, c.PanicEvery)
}

// Stats counts the faults a schedule has actually delivered, exported on
// the daemon's /metrics so a chaos run is observable.
type Stats struct {
	DiskErrs  uint64 `json:"disk_errs" prom:"faults_total{kind=disk-err} Faults the -chaos schedule has delivered, by kind."`
	DiskSlows uint64 `json:"disk_slows" prom:"faults_total{kind=disk-slow}"`
	TornWrite uint64 `json:"torn_writes" prom:"faults_total{kind=torn-write}"`
	Panics    uint64 `json:"panics" prom:"faults_total{kind=panic}"`
}

// Fault-category salts: distinct streams per (category, flavor) so one
// operation's slow/error/torn decisions are independent draws.
const (
	catLoadErr uint64 = 0x10ad_e44 + iota
	catLoadSlow
	catStoreErr
	catStoreSlow
	catStoreTorn
	catPanic
)

// Chaos is one live schedule. It implements cas.FaultInjector for the disk
// tier; the service asks WorkerPanic per job execution. Safe for concurrent
// use.
type Chaos struct {
	cfg Config

	loads, stores, jobs atomic.Uint64

	diskErrs, diskSlows, torn, panics atomic.Uint64
}

var _ cas.FaultInjector = (*Chaos)(nil)

// New builds a live schedule from cfg.
func New(cfg Config) *Chaos { return &Chaos{cfg: cfg} }

// Config returns the schedule's configuration (the repro line).
func (c *Chaos) Config() Config { return c.cfg }

// fires reports whether the n-th draw of a category fires at proportion
// 1/every: a splitmix64 hash of (seed, category, n) — deterministic, and
// decorrelated across categories sharing a counter.
func (c *Chaos) fires(cat, n, every uint64) bool {
	if every == 0 {
		return false
	}
	x := c.cfg.Seed ^ cat
	_ = inject.SplitMix64(&x) // absorb the salt
	x ^= n
	return inject.SplitMix64(&x)%every == 0
}

// Disk implements cas.FaultInjector: the scheduled perturbation, if any,
// for the next disk operation of kind op ("load" or "store").
func (c *Chaos) Disk(op string) (cas.DiskFault, bool) {
	var f cas.DiskFault
	fired := false
	switch op {
	case "load":
		n := c.loads.Add(1)
		if c.fires(catLoadSlow, n, c.cfg.SlowEvery) {
			f.Delay = time.Duration(c.cfg.SlowMS) * time.Millisecond
			c.diskSlows.Add(1)
			fired = true
		}
		if c.fires(catLoadErr, n, c.cfg.DiskErrEvery) {
			f.Err = ErrInjected
			c.diskErrs.Add(1)
			fired = true
		}
	case "store":
		n := c.stores.Add(1)
		if c.fires(catStoreSlow, n, c.cfg.SlowEvery) {
			f.Delay = time.Duration(c.cfg.SlowMS) * time.Millisecond
			c.diskSlows.Add(1)
			fired = true
		}
		if c.fires(catStoreErr, n, c.cfg.DiskErrEvery) {
			f.Err = ErrInjected
			c.diskErrs.Add(1)
			fired = true
		} else if c.fires(catStoreTorn, n, c.cfg.TornEvery) {
			// Tear only writes that weren't already failed outright: a
			// torn write's whole point is that it reports success.
			f.TornBytes = 1 + int(n%23)
			c.torn.Add(1)
			fired = true
		}
	}
	return f, fired
}

// Panic is the value an injected worker panic carries, so the recover that
// contains it can tell scheduled chaos from an organic bug.
type Panic string

// WorkerPanic reports whether the next job execution should panic inside
// the worker (exercising the service's panic containment), and the value to
// panic with.
func (c *Chaos) WorkerPanic() (Panic, bool) {
	n := c.jobs.Add(1)
	if !c.fires(catPanic, n, c.cfg.PanicEvery) {
		return "", false
	}
	c.panics.Add(1)
	return Panic(fmt.Sprintf("chaos: injected worker panic (job draw %d, %s)", n, c.cfg)), true
}

// Stats snapshots the delivered-fault counters. Safe on a nil schedule
// (all zero), so callers never branch on whether -chaos was set.
func (c *Chaos) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		DiskErrs:  c.diskErrs.Load(),
		DiskSlows: c.diskSlows.Load(),
		TornWrite: c.torn.Load(),
		Panics:    c.panics.Load(),
	}
}
